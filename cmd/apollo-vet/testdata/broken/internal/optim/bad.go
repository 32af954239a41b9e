// Package optim seeds deliberate contract violations, one for mapiter here
// and one for seams in lookup.go: TestDriverFlagsSeededViolation runs
// apollo-vet over this module and demands exit status 1.
package optim

// SumFloats accumulates in map order — the exact bug mapiter exists for.
func SumFloats(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}
