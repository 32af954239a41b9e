package apollo

import (
	"testing"

	"apollo/internal/analysis/load"
	"apollo/internal/analysis/vet"
)

// TestModuleVets runs the contract analyzers (internal/analysis/vet.Suite:
// mapiter, floateq, obsguard, closecheck and the seams table) over the whole
// module, test files included, and fails on any finding.
func TestModuleVets(t *testing.T) {
	diags, err := vet.Run(load.Config{Dir: "."}, vet.Suite(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
