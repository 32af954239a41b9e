// Command apollo-ckpt inspects checkpoint files written by apollo-pretrain
// (internal/ckpt format): header and section dump with per-section CRC
// verification, a decoded META summary, and the predicted-vs-actual file
// size from the analytic memory model.
//
// Usage:
//
//	apollo-ckpt run.ckpt            # dump header, sections, summary
//	apollo-ckpt -verify run.ckpt    # integrity check only (exit 1 on corruption)
//
// A corrupt file (any flipped byte — every section carries a CRC-32) is
// reported with the offending section named and a non-zero exit status.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"apollo/internal/ckpt"
	"apollo/internal/memmodel"
	"apollo/internal/nn"
	"apollo/internal/obs"
)

func main() {
	verify := flag.Bool("verify", false, "verify integrity only (quiet, exit 1 on corruption)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: apollo-ckpt [-verify] FILE...")
		os.Exit(2)
	}
	exit := 0
	for _, path := range flag.Args() {
		if err := inspect(path, *verify); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func inspect(path string, verifyOnly bool) error {
	// One read serves both the section dump and the full decode — no second
	// pass over a multi-GiB file, and no window for a concurrent periodic
	// save to swap the bytes between CRC check and decode.
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	info, err := ckpt.Inspect(raw)
	if err != nil {
		return err
	}
	if verifyOnly {
		fmt.Printf("%s: ok (%d sections, %s)\n", path, len(info.Sections), obs.FormatBytes(info.Size))
		return nil
	}

	fmt.Printf("%s: format v%d, %s\n", path, info.Version, obs.FormatBytes(info.Size))
	fmt.Printf("  %-4s %12s %10s  %s\n", "tag", "bytes", "crc32", "status")
	for _, s := range info.Sections {
		fmt.Printf("  %-4s %12d %10x  ok\n", s.Tag, s.Len, s.CRC)
	}

	st, err := ckpt.Read(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	var weightElems int64
	statesPresent := 0
	shapes := make([]memmodel.Shape, len(st.Params))
	rank := 0
	for i, p := range st.Params {
		weightElems += int64(p.Rows) * int64(p.Cols)
		shapes[i] = memmodel.Shape{
			Name: p.Name, Rows: p.Rows, Cols: p.Cols,
			Projectable: nn.ParamKind(p.Kind) == nn.KindMatrix,
		}
		if ps := st.OptStates[i]; ps != nil {
			statesPresent++
			// The rank-space matrices reveal the training rank; the first
			// one seen fixes the memmodel prediction below.
			if rank == 0 && len(ps.Whole) > 0 {
				rank = ps.Whole[0].Rows
			}
		}
	}
	fmt.Printf("  optimizer   %s\n", st.Optimizer)
	fmt.Printf("  step        %d (lr %g)\n", st.Step, st.LR)
	fmt.Printf("  params      %d tensors, %d elements (%s fp32)\n",
		len(st.Params), weightElems, obs.FormatBytes(4*weightElems))
	fmt.Printf("  opt states  %d/%d parameters, %d global cursors\n",
		statesPresent, len(st.Params), len(st.OptGlobals))
	fmt.Printf("  data cursor %#x\n", st.DataCursor)

	// What the snapshot costs to *serve* (apollo-serve's weights-only open
	// path: optimizer sections CRC-checked but never decoded, gradients
	// freed) — optimizer-independent by construction.
	fmt.Printf("  serving     %s resident (memmodel.ServeBytes; weights only)\n",
		obs.FormatBytes(int64(memmodel.ServeBytes(shapes))))

	method, err := memmodel.MethodByName(st.Optimizer)
	if err != nil {
		fmt.Printf("  predicted   n/a (no memory-model entry for %q)\n", st.Optimizer)
		return nil
	}
	predicted := memmodel.CheckpointBytes(shapes, method, rank)
	dev := (float64(info.Size) - predicted) / predicted * 100
	fmt.Printf("  predicted   %s (memmodel.CheckpointBytes, rank %d) — actual %+.1f%%\n",
		obs.FormatBytes(int64(predicted)), rank, dev)
	return nil
}
