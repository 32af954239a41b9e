package zero

func (s *Sharded) StateElemsFor() int64 { return 0 } // want `declared StateElemsFor: a per-parameter state-element count`
