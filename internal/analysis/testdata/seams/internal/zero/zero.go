package zero

import (
	"apollo/internal/memmodel"
	"apollo/internal/optim"
)

type Sharded struct {
	inner optim.Optimizer
}

func (s *Sharded) hooks() bool {
	_, saves := s.inner.(optim.StateSaver)  // want `optim.StateSaver: run-time StateSaver/StateLoader assertion`
	_, loads := s.inner.(optim.StateLoader) // want `optim.StateLoader: run-time StateSaver/StateLoader assertion`
	return saves && loads
}

func (s *Sharded) StateBytesFor() int64 { return 0 }

func price(m memmodel.Method) float64 {
	a := memmodel.StateElems(nil, m, 4) * 4   // want `memmodel.StateElems: state elements times a byte width`
	b := float64(m.StateElems(1, 2, 3))       // want `memmodel.Method.StateElems: state elements times a byte width`
	c := m.StateBytesPer * memmodel.BytesINT8 // want `memmodel.Method.StateBytesPer: INT8 width picked` `memmodel.BytesINT8: INT8 width picked`
	return a + b + c + memmodel.LiveStateBytes(nil, m, 4)
}
