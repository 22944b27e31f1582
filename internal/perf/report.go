package perf

import (
	"fmt"
	"io"
	"sort"
)

// Snapshot is a point-in-time copy of a profiler's phase buckets, keyed
// by phase name.
type Snapshot struct {
	Buckets map[string]Bucket `json:"buckets"`
}

// Entry is one phase bucket with its name.
type Entry struct {
	Name string
	Bucket
}

// Entries returns all buckets sorted by self time descending (name order
// breaks ties, so output over identical data is deterministic).
func (s Snapshot) Entries() []Entry {
	out := make([]Entry, 0, len(s.Buckets))
	for name, b := range s.Buckets {
		out = append(out, Entry{Name: name, Bucket: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Nanos != out[j].Nanos {
			return out[i].Nanos > out[j].Nanos
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TotalNanos sums the self time of every phase.
func (s Snapshot) TotalNanos() int64 {
	var t int64
	for _, b := range s.Buckets {
		t += b.Nanos
	}
	return t
}

// WriteTable renders the engine phases with their exclusive wall time,
// entry counts and share of the phase total, slowest first.
func (s Snapshot) WriteTable(w io.Writer) error {
	total := s.TotalNanos()
	if total == 0 {
		return nil
	}
	fmt.Fprintf(w, "engine phases (exclusive wall time):\n")
	fmt.Fprintf(w, "  %-22s %12s %14s %7s\n", "phase", "calls", "self", "%")
	for _, e := range s.Entries() {
		if _, err := fmt.Fprintf(w, "  %-22s %12d %14s %6.1f%%\n",
			e.Name, e.Count, fmtNanos(e.Nanos), 100*float64(e.Nanos)/float64(total)); err != nil {
			return err
		}
	}
	return nil
}

// fmtNanos renders a nanosecond total at a human scale.
func fmtNanos(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.3fs", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.3fms", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.3fµs", float64(n)/1e3)
	default:
		return fmt.Sprintf("%dns", n)
	}
}
