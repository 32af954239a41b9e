package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// RenderPrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4): one HELP/TYPE header per family in registration order,
// then one sample line per instance — histograms expand into cumulative
// _bucket{le=...} lines plus _sum and _count. A nil registry renders
// nothing.
func (r *Registry) RenderPrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.order {
		fam := r.families[name]
		if fam.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.typ)
		for _, in := range fam.instances {
			switch m := in.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", fam.name, renderLabels(m.labels), m.Value())
			case *funcCounter:
				fmt.Fprintf(&b, "%s%s %d\n", fam.name, renderLabels(m.labels), m.fn())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", fam.name, renderLabels(m.labels), formatValue(m.Value()))
			case *funcGauge:
				fmt.Fprintf(&b, "%s%s %s\n", fam.name, renderLabels(m.labels), formatValue(m.fn()))
			case *Histogram:
				cum := m.snapshot()
				for i, le := range m.le {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", fam.name, renderLabels(m.labels, Label{"le", formatValue(le)}), cum[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", fam.name, renderLabels(m.labels, Label{"le", "+Inf"}), cum[len(cum)-1])
				fmt.Fprintf(&b, "%s_sum%s %s\n", fam.name, renderLabels(m.labels), formatValue(m.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", fam.name, renderLabels(m.labels), m.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Scrape is an exposition read back by ParseExposition. Both maps are keyed
// by series, "name{labels}" as rendered; a histogram's key is its family
// name with the le label dropped.
type Scrape struct {
	Counters   map[string]float64
	Histograms map[string]*Buckets
}

// Buckets is one histogram as the exposition carries it: the finite upper
// bounds, and the cumulative counts aligned with them plus the +Inf total —
// BucketQuantile's input. The exposition carries no maximum, so a reader
// passes +Inf as the overflow value.
type Buckets struct {
	Le  []float64
	Cum []int64
}

// ParseExposition reads the counters and histogram buckets back out of the
// text RenderPrometheus writes (gauges, _sum and _count are skipped). It
// relies on that renderer's shape: a TYPE line before each family's
// samples, and le as a histogram bucket's last label.
func ParseExposition(r io.Reader) (Scrape, error) {
	s := Scrape{Counters: map[string]float64{}, Histograms: map[string]*Buckets{}}
	types := map[string]string{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return s, fmt.Errorf("obs: malformed sample line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		name, labels, _ := strings.Cut(series, "{")
		base, isBucket := strings.CutSuffix(name, "_bucket")
		at := strings.LastIndex(labels, `le="`)
		switch {
		case types[name] == "counter":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return s, fmt.Errorf("obs: sample line %q: %w", line, err)
			}
			s.Counters[series] = v
		case isBucket && types[base] == "histogram":
			if at < 0 || !strings.HasSuffix(labels[at+4:], `"}`) {
				return s, fmt.Errorf("obs: bucket line %q has no trailing le label", line)
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(labels[at+4:], `"}`), 64)
			cum, err2 := strconv.ParseInt(val, 10, 64)
			if err = errors.Join(err, err2); err != nil {
				return s, fmt.Errorf("obs: bucket line %q: %w", line, err)
			}
			key := base
			if rest := strings.TrimSuffix(labels[:at], ","); rest != "" {
				key += "{" + rest + "}"
			}
			h := s.Histograms[key]
			if h == nil {
				h = &Buckets{}
				s.Histograms[key] = h
			}
			if !math.IsInf(le, 1) {
				h.Le = append(h.Le, le)
			}
			h.Cum = append(h.Cum, cum)
		}
	}
	for key, h := range s.Histograms {
		if len(h.Cum) != len(h.Le)+1 {
			return s, fmt.Errorf("obs: histogram %s: %d bounds, %d cumulative counts", key, len(h.Le), len(h.Cum))
		}
	}
	return s, sc.Err()
}

// renderLabels formats a label set as {k="v",...} with proper escaping, or
// "" when empty.
func renderLabels(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a float the exposition way: shortest round-trip
// decimal, infinities as +Inf/-Inf.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
