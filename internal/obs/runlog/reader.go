package runlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"apollo/internal/obs"
	"apollo/internal/obs/memprof"
)

// RunData is one fully loaded ledger entry.
type RunData struct {
	Manifest Manifest
	Steps    []obs.StepEvent
	Alerts   []AlertEvent
	Mem      []memprof.Sample // memory timeline; empty when the run ran without memprof
}

// List reads every run manifest under root, sorted by start time (oldest
// first). Entries whose manifest is missing or unreadable are skipped — a
// ledger with one torn directory must not make the whole root unlistable.
func List(root string) ([]Manifest, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := ReadManifest(filepath.Join(root, e.Name()))
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// ReadManifest loads one run directory's manifest. Only the current layout
// version is readable: a directory written by any other version holds
// different files, so it is refused by name rather than loaded as empty.
func ReadManifest(dir string) (Manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("runlog: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return Manifest{}, fmt.Errorf("runlog: %s: %w", dir, err)
	}
	if m.Version != ManifestVersion {
		return Manifest{}, fmt.Errorf("runlog: %s: manifest version %d is not the version this reader reads (%d)", dir, m.Version, ManifestVersion)
	}
	return m, nil
}

// Load opens runs/<id> under root.
func Load(root, id string) (*RunData, error) {
	return LoadDir(filepath.Join(root, id))
}

// LoadDir loads a run directory wherever it lives — under a runs root or a
// committed baseline path. A missing event stream loads as empty: a
// manifest-only directory is still a readable run (Diff refuses to pass it).
func LoadDir(dir string) (*RunData, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	rd := &RunData{Manifest: m}
	if _, err := TailEvents(dir, 0, rd); err != nil {
		return nil, err
	}
	return rd, nil
}

// TailEvents appends to rd the events run directory dir has recorded past
// byte offset off and returns the offset to resume from — 0 loads the whole
// stream, the returned value polls a live run. A missing file is empty.
func TailEvents(dir string, off int64, rd *RunData) (int64, error) {
	f, err := os.Open(filepath.Join(dir, EventsFile))
	if os.IsNotExist(err) {
		return off, nil
	}
	if err != nil {
		return off, fmt.Errorf("runlog: %w", err)
	}
	defer f.Close() //apollo:allowdiscard file opened read-only; close cannot lose written bytes
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return off, fmt.Errorf("runlog: %w", err)
	}
	off, err = ReadEvents(f, off, rd)
	if err != nil {
		return off, fmt.Errorf("runlog: %s: %w", dir, err)
	}
	return off, nil
}

// ReadEvents is the one JSONL reader. r is positioned at byte offset off of
// an event stream; every newline-terminated line is decoded by its "kind"
// into rd, and the offset just past the last such line is returned. An
// unterminated tail is a write in progress: it is ignored and the offset
// stays before it, so the next call reads it whole. A terminated line that
// does not parse, or carries no string "kind", is corruption and is an error
// naming its byte offset (the offset returned with it is where it starts).
// Kinds RunData has no field for — spans, anything a newer writer adds — are
// skipped.
func ReadEvents(r io.Reader, off int64, rd *RunData) (int64, error) {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			return off, err
		}
		if err := rd.decodeEvent(line); err != nil {
			return off, fmt.Errorf("corrupt event line at byte %d: %w", off, err)
		}
		off += int64(len(line))
	}
}

// decodeEvent appends one terminated line to the series its kind names.
func (rd *RunData) decodeEvent(line []byte) error {
	if len(bytes.TrimSpace(line)) == 0 {
		return nil
	}
	var head struct {
		Kind *string `json:"kind"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return err
	}
	if head.Kind == nil {
		return errors.New(`no "kind"`)
	}
	switch *head.Kind {
	case obs.KindStep:
		return appendEvent(line, &rd.Steps)
	case obs.KindAlert:
		return appendEvent(line, &rd.Alerts)
	case obs.KindMem:
		return appendEvent(line, &rd.Mem)
	}
	return nil
}

func appendEvent[T any](line []byte, to *[]T) error {
	var ev T
	if err := json.Unmarshal(line, &ev); err != nil {
		return err
	}
	*to = append(*to, ev)
	return nil
}

// MemPeak returns the sample with the largest ledger total in a loaded
// timeline (zero Sample, false when the run has no memory timeline).
func (rd *RunData) MemPeak() (memprof.Sample, bool) {
	if rd == nil || len(rd.Mem) == 0 {
		return memprof.Sample{}, false
	}
	peak := rd.Mem[0]
	for _, s := range rd.Mem[1:] {
		if s.TotalBytes > peak.TotalBytes {
			peak = s
		}
	}
	return peak, true
}

// ComponentPeak is one ledger component's largest recorded size, with the
// analytic prediction recorded in the sample where it peaked (0: none).
type ComponentPeak struct {
	Name      string
	Bytes     int64
	Predicted float64
}

// ComponentPeaks folds the memory timeline into per-component peaks, sorted
// by component name.
func (rd *RunData) ComponentPeaks() []ComponentPeak {
	peaks := map[string]ComponentPeak{}
	for _, s := range rd.Mem {
		for comp, v := range s.Components {
			p := peaks[comp]
			if v >= p.Bytes {
				p.Name, p.Bytes = comp, v
				if pred, ok := s.Predicted[comp]; ok {
					p.Predicted = pred
				}
			}
			peaks[comp] = p
		}
	}
	out := make([]ComponentPeak, 0, len(peaks))
	for _, p := range peaks {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GC deletes run directories under root beyond the newest keep (by start
// time) or older than maxAge, returning the removed IDs. keep < 0 disables
// the count rule; maxAge <= 0 disables the age rule. Runs still marked
// "running" are spared when younger than a day — live jobs must survive a
// janitor pass, but a week-old "running" entry is a corpse. dryRun selects
// the same victims and returns them without deleting anything.
func GC(root string, keep int, maxAge time.Duration, dryRun bool) ([]string, error) {
	ms, err := List(root)
	if err != nil {
		return nil, err
	}
	now := time.Now().UTC()
	var removed []string
	for i, m := range ms {
		victim := false
		if keep >= 0 && len(ms)-i > keep {
			victim = true
		}
		if maxAge > 0 && now.Sub(m.Start) > maxAge {
			victim = true
		}
		if !victim {
			continue
		}
		if m.Status == StatusRunning && now.Sub(m.Start) < 24*time.Hour {
			continue
		}
		if !dryRun {
			if err := os.RemoveAll(filepath.Join(root, m.ID)); err != nil {
				return removed, fmt.Errorf("runlog: gc %s: %w", m.ID, err)
			}
		}
		removed = append(removed, m.ID)
	}
	return removed, nil
}
