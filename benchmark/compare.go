package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// compareMain prints, for every end-to-end metric on every workload, whether
// two result files agree within the bound BENCHMARK.json fixes:
//
//	benchmark compare [-root DIR] PARENT.jsonl CHANGE.jsonl
//
// It exits 1 when any pairing regressed.
func compareMain(args []string) error {
	root := "."
	if len(args) >= 2 && args[0] == "-root" {
		root, args = args[1], args[2:]
	}
	if len(args) != 2 {
		return fmt.Errorf("usage: compare [-root DIR] PARENT.jsonl CHANGE.jsonl")
	}
	c, err := readContract(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	parent, err := readRecords(args[0])
	if err != nil {
		return err
	}
	change, err := readRecords(args[1])
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Printf("%-20s %-16s %-6s %13s %7s %13s %7s %8s %6s  %s\n",
		"workload", "metric", "unit", "parent", "spread", "change", "spread", "worse by", "bound", "verdict")
	for _, w := range c.Workloads {
		for _, d := range c.EndToEnd {
			p, okP := parent[w.Name][d.Name]
			ch, okC := change[w.Name][d.Name]
			if !okP || !okC {
				continue
			}
			verdict, worse := judge(d, p, ch)
			if verdict == "REGRESSED" {
				regressed++
			}
			fmt.Printf("%-20s %-16s %-6s %13.6g %6.1f%% %13.6g %6.1f%% %7.1f%% %5.1f%%  %s (n %d, %d)\n",
				w.Name, d.Name, d.Unit, p.med, p.spread()*100, ch.med, ch.spread()*100, worse*100, d.Bound*100, verdict, p.n, ch.n)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric × workload pairings regressed", regressed)
	}
	return nil
}

// judge compares two summaries of one metric. worse is the share of the
// parent's median by which the change's median is worse (negative: better).
// A difference inside the bound is only called unchanged when both sides'
// spreads are inside it too; otherwise the runs cannot tell.
func judge(d metricDecl, parent, change summary) (verdict string, worse float64) {
	if parent.med != 0 { //apollo:exactfloat guards the division only
		worse = (change.med - parent.med) / parent.med
	}
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "REGRESSED", worse
	case parent.spread() > d.Bound || change.spread() > d.Bound:
		return "unresolved", worse
	default:
		return "unchanged", worse
	}
}

// readRecords reads the end-to-end runs of a JSON-lines result file and
// summarizes them by workload and metric.
func readRecords(path string) (map[string]map[string]summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var records []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			records = append(records, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("%s holds no end-to-end runs", path)
	}
	return summarize(records), nil
}
