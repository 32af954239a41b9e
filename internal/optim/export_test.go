package optim

// The golden parameter list and gradients, for the external test package
// (fuzz_test.go imports internal/core, which this package cannot).
var (
	GoldenParams = goldenParams
	GoldenGrads  = goldenGrads
)

// Declared exposes a table's declaration to the README layout check.
func (t *StateTable) Declared() (Schema, *StateTable) { return t.schema, t.fallback }
