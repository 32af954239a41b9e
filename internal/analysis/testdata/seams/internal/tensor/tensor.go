package tensor

type RNG struct{ state uint64 }

func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

func (r *RNG) Uint64() uint64 { r.state++; return r.state }

func (r *RNG) Norm() float64 { return float64(r.Uint64()) }

func Mix(seed uint64, name string, counters ...uint64) uint64 {
	return seed + uint64(len(name)+len(counters))
}

func LogSumExp(x []float32) float64 { return float64(len(x)) }
