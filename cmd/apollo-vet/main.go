// Command apollo-vet is the repo's contract linter: a multichecker running
// the internal/analysis suite — mapiter (bit-parity: no unordered map
// iteration in determinism-critical packages), floateq (no float ==/!=
// outside tests and annotated exact helpers), obsguard (nil-receiver
// guards on obs handle types), closecheck (no discarded Close/Flush/
// Sync/Finalize errors on crash-honest writers) and seams (the design's
// seams, one table in internal/analysis/seams).
//
// Usage:
//
//	apollo-vet [-C dir] [packages]
//
// Packages default to ./... and include their _test.go files. Exit status:
// 0 clean, 1 findings, 2 load or usage error. The root package's
// TestModuleVets runs the same suite over the module in `go test ./...`; a
// finding is fixed, or suppressed in place with the analyzer's
// //apollo:<directive> comment plus a justification (see README "Static
// analysis"). A seams finding has no directive: the row's allow list is
// where a use stands on purpose.
package main

import (
	"flag"
	"fmt"
	"os"

	"apollo/internal/analysis/load"
	"apollo/internal/analysis/vet"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("apollo-vet", flag.ExitOnError)
	dir := fs.String("C", "", "change to this directory before loading (module root)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	diags, err := vet.Run(load.Config{Dir: *dir}, vet.Suite(), fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apollo-vet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "apollo-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
