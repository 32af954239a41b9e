package eval

import "apollo/internal/nn"

// Warm is in a file the forward row does not name.
func Warm(m *nn.Model) int { return len(m.Forward(nil)) }
