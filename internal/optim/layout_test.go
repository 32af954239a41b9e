package optim_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// layoutRow renders one optimizer's declaration as a row of the README's
// checkpoint-layout table, with shapes for the first golden parameter the
// schema covers (the 8×16 matrix, at rank 4).
func layoutRow(opt optim.Optimizer) string {
	declared, ok := opt.(interface {
		Declared() (optim.Schema, *optim.StateTable)
	})
	if !ok {
		return ""
	}
	sc, fallback := declared.Declared()
	var sample *nn.Param
	splits, covered, vectorsOnly := 0, 0, true
	for _, p := range optim.GoldenParams() {
		if sc.Covers != nil && !sc.Covers(p) {
			continue
		}
		if sample == nil {
			sample = p
		}
		covered++
		if sc.RowSplittable != nil && sc.RowSplittable(p) {
			splits++
		} else if p.Kind != nn.KindVector {
			vectorsOnly = false
		}
	}
	name := sc.Name
	var scalars []string
	for _, s := range sc.Scalars {
		switch {
		case s.Const:
			scalars = append(scalars, fmt.Sprintf("%s=%d", s.Name, s.Value))
		case s.Counted:
			scalars = append(scalars, s.Name+"†")
		default:
			scalars = append(scalars, s.Name)
		}
	}
	cols := map[optim.SlotKind][]string{}
	for _, sl := range sc.Slots {
		rows, cs := sample.W.Rows, sample.W.Cols
		if sl.Dims != nil {
			rows, cs = sl.Dims(sample)
		}
		cols[sl.Kind] = append(cols[sl.Kind], fmt.Sprintf("%s %d×%d", sl.Name, rows, cs))
	}
	if sc.Proj != nil {
		scalars = append(scalars, "proj seed", "proj rng", "proj m", "proj ready")
		if sc.Proj.Kind == linalg.SVDProjection {
			name += " (SVD)"
			cols[optim.Whole] = append(cols[optim.Whole], fmt.Sprintf("P %d×%d once built", sc.Proj.Rank, min(sample.W.Rows, sample.W.Cols)))
		} else {
			name += " (random)"
		}
	}
	gs, _ := opt.CaptureGlobals()
	split := "no"
	switch {
	case splits == covered:
		split = "yes"
	case splits > 0 && vectorsOnly:
		split = "not vectors"
	}
	others := "—"
	if fallback != nil {
		fsc, _ := fallback.Declared()
		others = fsc.Name
	}
	cell := func(s []string) string {
		if len(s) == 0 {
			return "—"
		}
		return strings.Join(s, ", ")
	}
	return fmt.Sprintf("| %s | %d | %s | %s | %s | %s | %s | %s |", name, len(gs),
		cell(scalars), cell(cols[optim.RowAligned]), cell(cols[optim.Whole]), cell(cols[optim.Int8]), split, others)
}

// TestCheckpointLayoutTable checks the README's "canonical layout" table
// against the declarations: every row is rendered from a live optimizer's
// Schema, so the documented on-disk layout cannot drift from the one
// CaptureParam writes.
func TestCheckpointLayoutTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, build := range fuzzZoo {
		row := layoutRow(build())
		if row == "" || seen[row] {
			continue
		}
		seen[row] = true
		if !strings.Contains(string(readme), row+"\n") {
			t.Errorf("README.md lacks the layout row\n%s", row)
		}
	}
	if len(seen) < 15 {
		t.Fatalf("only %d distinct layouts rendered", len(seen))
	}
}

// TestEntriesSitInTheCoveringTable steps every member once and checks each
// table of its chain on its own: what the table holds beyond its fallback is
// exactly the StateBytesFor of the parameters that reach it and that its
// schema covers. The walk splits the list by Schema.Covers; a Step that split
// by a second copy of the predicate could allocate an entry in a table that
// then refuses to account for it or checkpoint it.
func TestEntriesSitInTheCoveringTable(t *testing.T) {
	type table interface {
		Declared() (optim.Schema, *optim.StateTable)
		StateBytes() int64
		StateBytesFor(p *nn.Param) int64
	}
	for _, build := range fuzzZoo {
		opt := build()
		tbl, ok := opt.(table)
		if !ok {
			continue // a wrapper; its inner is a row of its own
		}
		reach := optim.GoldenParams()
		optim.GoldenGrads(reach, tensor.NewRNG(3), 2)
		opt.Step(reach)
		for depth := 0; ; depth++ {
			sc, fallback := tbl.Declared()
			held := tbl.StateBytes()
			if fallback != nil {
				held -= fallback.StateBytes()
			}
			var claimed int64
			var rest []*nn.Param
			for _, p := range reach {
				if sc.Covers == nil || sc.Covers(p) {
					claimed += tbl.StateBytesFor(p)
				} else {
					rest = append(rest, p)
				}
			}
			if held != claimed {
				t.Errorf("%s: table %d (%s) holds %d bytes, the parameters it covers account for %d", opt.Name(), depth, sc.Name, held, claimed)
			}
			if fallback == nil {
				if len(rest) > 0 {
					t.Errorf("%s: %d parameters are covered by no table", opt.Name(), len(rest))
				}
				break
			}
			tbl, reach = fallback, rest
		}
	}
}
