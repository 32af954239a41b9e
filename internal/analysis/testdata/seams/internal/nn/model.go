package nn

type Param struct {
	Name string
	W    []float32
}

type Model struct{}

func (m *Model) Forward(x []int) []float32 { return nil }

func (m *Model) ForwardFrom(x []int, from int) []float32 { return nil }

func (m *Model) Backward() {}

func (m *Model) BackwardLend() {} // want `declared BackwardLend: gradient lifetime outside the arena`

type Block struct{}

func (b *Block) Forward(x []float32) []float32 { return x }
