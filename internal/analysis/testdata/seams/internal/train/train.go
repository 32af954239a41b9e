package train

import (
	"apollo/internal/ckpt"
	"apollo/internal/nn"
	"apollo/internal/optim"
)

// Save is the training loop's snapshot: the one writer.
func Save(opt optim.Optimizer, ps []*nn.Param, path string) error {
	st, err := ckpt.Capture(1, ps, opt)
	if err != nil {
		return err
	}
	return ckpt.SaveFile(path, st)
}

type trainMetrics struct{}

// Observe is outside internal/serve: the wrapper row does not apply.
func (m *trainMetrics) Observe() {}

func Accuracy(m *nn.Model) int { return len(m.Forward(nil)) }
