package obs

import "sort"

// Merge appends another tracer's span chunks (in their recording order)
// after t's own, without copying spans, and folds in its track names with
// keep-first semantics. Used by parallel experiment sweeps: each
// concurrent job records into a private tracer, and the driver merges them
// in the order a serial sweep would have recorded them, so the Chrome
// trace dump stays byte-identical.
func (t *Tracer) Merge(other *Tracer) {
	if t == nil || other == nil || t == other {
		return
	}
	// Clipping each chunk's capacity keeps t's next span out of other's
	// storage.
	for _, c := range other.chunks {
		t.chunks = append(t.chunks, c[:len(c):len(c)])
	}
	if other.procNames == nil {
		return
	}
	pids := make([]int, 0, len(other.procNames))
	for pid := range other.procNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		t.NameTrack(pid, 0, other.procNames[pid], "")
	}
	keys := make([][2]int, 0, len(other.threadNames))
	for key := range other.threadNames {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		t.NameTrack(key[0], key[1], "", other.threadNames[key])
	}
}

// Merge folds another registry into m as if other's updates had replayed
// after m's own: counters and histograms add, and gauges compose
// sequentially under their delta (Add) semantics — the merged value is
// the sum and the merged peak is max(m's peak, m's value + other's peak).
// Every gauge the job engine records is delta-based (queue depths), so
// this reproduces a serial shared-registry run exactly. Families and
// series are matched by name and canonical label key; helps, types, and
// histogram bounds keep the first registration, like serial re-use.
func (m *Registry) Merge(other *Registry) {
	if m == nil || other == nil || m == other {
		return
	}
	names := make([]string, 0, len(other.families))
	for name := range other.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		of := other.families[name]
		f := m.family(of.name, of.help, of.typ)
		keys := make([]string, 0, len(of.series))
		for k := range of.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s, _ := f.lookup(of.series[k].labels)
			mergeSeries(s, of.series[k])
		}
	}
}

func mergeSeries(dst, src *series) {
	if src.ctr != nil {
		if dst.ctr == nil {
			dst.ctr = &Counter{}
		}
		dst.ctr.v += src.ctr.v
	}
	if src.gauge != nil && src.gauge.set {
		if dst.gauge == nil {
			dst.gauge = &Gauge{}
		}
		g := dst.gauge
		if p := g.v + src.gauge.peak; !g.set || p > g.peak {
			g.peak = p
		}
		g.v += src.gauge.v
		g.set = true
	}
	if src.hist != nil {
		if dst.hist == nil {
			dst.hist = &Histogram{
				bounds: append([]float64(nil), src.hist.bounds...),
				counts: make([]uint64, len(src.hist.counts)),
			}
		}
		h := dst.hist
		for i, c := range src.hist.counts {
			if i < len(h.counts) {
				h.counts[i] += c
			}
		}
		h.sum += src.hist.sum
		h.n += src.hist.n
	}
}

// Merge folds another recorder's trace and metrics into r (both nil-safe).
func (r *Recorder) Merge(other *Recorder) {
	if r == nil || other == nil || r == other {
		return
	}
	r.trace.Merge(other.trace)
	r.metrics.Merge(other.metrics)
}

// Fork returns a fresh private recorder when r is non-nil (for a
// concurrent job whose records are Merged back in deterministic order),
// and nil — recording disabled — when r is nil.
func (r *Recorder) Fork() *Recorder {
	if r == nil {
		return nil
	}
	return NewRecorder()
}
