package main

import (
	"syscall"
	"time"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/kv"
	"repro/internal/minic"
	"repro/internal/mr"
	"repro/internal/seqfile"
	"repro/internal/sim"
	"repro/internal/streaming"
)

// opTrace collects one traced op's spans and per-layer values.
type opTrace struct {
	rec    *recorder
	opSpan int
	vals   map[string]float64
	// after, when set, replays the op's computed work once the op's own
	// span has closed, so replays never count toward op time.
	after func() error
}

func (t *opTrace) add(name string, v float64) { t.vals[name] += v }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mapKey mirrors the functional executor's memo key: an attempt is
// computed once per (split, device, locality) and served from its cache
// after that.
type mapKey struct {
	split        int
	onGPU, local bool
}

// tracedExec is an mr.Executor that times every call into the executor it
// wraps. With spans on, each call is a span under the job's RunJob span;
// with spans off (sampled executors answer ~117k calls per op), call time
// is summed into one aggregate child of that span.
type tracedExec struct {
	inner mr.Executor
	tr    *opTrace
	run   int
	spans bool
	calls time.Duration // engine time spent inside executor calls

	// Set for functional executors only.
	fe        *mr.FunctionalExecutor
	seen      map[mapKey]bool
	cpuSplits []int         // splits of computed CPU attempts, for replay
	committed [][][]kv.Pair // partitions of computed attempts, for replay
	reduceIns [][][]kv.Pair // inputs of reduce calls, for replay
}

func newTracedExec(inner mr.Executor, tr *opTrace, run int, spans bool) *tracedExec {
	x := &tracedExec{inner: inner, tr: tr, run: run, spans: spans}
	if fe, ok := inner.(*mr.FunctionalExecutor); ok {
		x.fe = fe
		x.seen = map[mapKey]bool{}
	}
	return x
}

// timed runs f as one executor call named name and returns its duration.
func (x *tracedExec) timed(name string, f func()) time.Duration {
	if !x.spans {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		x.calls += d
		x.tr.rec.aggregate(x.run, "mr.sampled_exec", d)
		return d
	}
	id := x.tr.rec.begin(name, x.run)
	f()
	d := x.tr.rec.end(id)
	x.calls += d
	return d
}

// NumSplits implements mr.Executor.
func (x *tracedExec) NumSplits() int { return x.inner.NumSplits() }

// NumReducers implements mr.Executor.
func (x *tracedExec) NumReducers() int { return x.inner.NumReducers() }

// Locations implements mr.Executor.
func (x *tracedExec) Locations(split int) []int { return x.inner.Locations(split) }

// MapTask implements mr.Executor. A call the functional executor answers
// from its memo is "mr.exec_cached"; a computed one belongs to the
// streaming (CPU) or gpurt (GPU) layer.
func (x *tracedExec) MapTask(split int, onGPU bool, node int) (mr.MapAttempt, error) {
	x.tr.add("mr.map_calls", 1)
	name, computed := "mr.exec_cached", true
	var key mapKey
	if x.fe != nil {
		key = mapKey{split: split, onGPU: onGPU, local: x.fe.Splits[split].IsLocal(node)}
		computed = !x.seen[key]
	}
	if computed {
		x.tr.add("mr.map_computes", 1)
		name = "streaming.map_task"
		if onGPU {
			name = "gpurt.task"
		}
	}
	var a mr.MapAttempt
	var err error
	var cpu0 time.Duration
	if computed && onGPU && x.fe != nil {
		cpu0 = cpuTime() // a GPU task runs one goroutine per threadblock
	}
	d := x.timed(name, func() { a, err = x.inner.MapTask(split, onGPU, node) })
	if computed && x.fe != nil {
		if onGPU {
			x.tr.add("gpurt.task_s", d.Seconds())
			x.tr.add("gpurt.tasks", 1)
			x.tr.add("gpurt.cpu_s", (cpuTime() - cpu0).Seconds())
		} else {
			x.tr.add("streaming.map_task_s", d.Seconds())
		}
		if err == nil {
			x.seen[key] = true
			if !onGPU {
				x.cpuSplits = append(x.cpuSplits, split)
			}
			if a.Partitions != nil {
				x.committed = append(x.committed, a.Partitions)
			}
		}
	}
	return a, err
}

// ReduceTask implements mr.Executor.
func (x *tracedExec) ReduceTask(p int, inputs [][]kv.Pair) (mr.ReduceWork, error) {
	x.tr.add("mr.reduce_calls", 1)
	var w mr.ReduceWork
	var err error
	d := x.timed("streaming.reduce", func() { w, err = x.inner.ReduceTask(p, inputs) })
	if x.fe != nil {
		x.tr.add("streaming.reduce_s", d.Seconds())
		x.reduceIns = append(x.reduceIns, inputs)
	}
	return w, err
}

// finish records the job's totals once its RunJob span (of duration run)
// has closed.
func (x *tracedExec) finish(run time.Duration) {
	x.tr.add("pool.exec_wait_s", x.calls.Seconds())
	x.tr.add("mr.engine_self_s", (run - x.calls).Seconds())
}

// tracedFunctional adds the functional executor's optional engine
// extensions to tracedExec, forwarding each, so the engine sees exactly
// the capabilities of the executor it would see untraced.
type tracedFunctional struct{ *tracedExec }

// PartitionSum forwards the verify-on-fetch checksum.
func (x tracedFunctional) PartitionSum(pairs []kv.Pair) uint32 {
	var sum uint32
	d := x.timed("seqfile.sum", func() { sum = x.fe.PartitionSum(pairs) })
	x.tr.add("seqfile.sum_s", d.Seconds())
	x.tr.add("seqfile.sums", 1)
	return sum
}

// ConfigureIntegrity forwards the integrity config; the executor resets
// its memo, and so does the wrapper's view of it.
func (x tracedFunctional) ConfigureIntegrity(cfg mr.IntegrityConfig) {
	x.seen = map[mapKey]bool{}
	x.fe.ConfigureIntegrity(cfg)
}

// SetWorkerPool forwards the prefetcher's pool.
func (x tracedFunctional) SetWorkerPool(p *sim.Pool) { x.fe.SetWorkerPool(p) }

// PrefetchMaps forwards the map prefetch hint.
func (x tracedFunctional) PrefetchMaps(gpu bool) {
	x.timed("pool.submit", func() { x.fe.PrefetchMaps(gpu) })
}

// PrefetchReduce forwards the reduce prefetch hint.
func (x tracedFunctional) PrefetchReduce(p int, inputs [][]kv.Pair) {
	x.timed("pool.submit", func() { x.fe.PrefetchReduce(p, inputs) })
}

// runTraced is the traced op: core.Run's job, built from its parts, with
// the executor wrapped. The replay of the op's computed CPU work is left
// in tr.after.
func (f *functional) runTraced(tr *opTrace) (outcome, error) {
	b := tr.rec.begin("bench.build", tr.opSpan)
	exec, cfg, err := f.build()
	tr.rec.end(b)
	if err != nil {
		return outcome{}, err
	}
	run := tr.rec.begin("mr.RunJob", tr.opSpan)
	te := newTracedExec(exec, tr, run, true)
	stats, err := mr.RunJob(cfg, tracedFunctional{te})
	te.finish(tr.rec.end(run))
	if err != nil {
		return outcome{}, err
	}
	tr.after = te.replay
	return jobOutcome(stats, f.prog.NumReducers), nil
}

// replay re-runs the pieces of the op's computed work one at a time, each
// at its layer's public call: the map filter, the KV line codec, partition
// and sort, the combine filter, the commit-time checksums, and the reduce
// merge. Replays read the raw split: no workload poisons its input.
func (x *tracedExec) replay() error {
	rec, j := x.tr.rec, x.fe.Job
	root := rec.begin("replay", 0)
	defer rec.end(root)
	piece := func(name string, f func() error) error {
		id := rec.begin(name, root)
		err := f()
		metric := name + "_s"
		if name == "seqfile.commit_sum" {
			metric = "seqfile.sum_s" // one layer metric for commit and fetch
		}
		x.tr.add(metric, rec.end(id).Seconds())
		return err
	}
	for _, split := range x.cpuSplits {
		input, err := x.fe.FS.ReadSplit(x.fe.Splits[split])
		if err != nil {
			return err
		}
		var out string
		if err := piece("streaming.vm_map", func() (err error) { out, _, err = j.MapF.Run(input); return }); err != nil {
			return err
		}
		var pairs []kv.Pair
		if err := piece("streaming.parse_kv", func() (err error) { pairs, err = streaming.ParseKVLines(out, j.Schema); return }); err != nil {
			return err
		}
		n := j.Program.NumReducers
		if n <= 0 {
			continue
		}
		parts := make([][]kv.Pair, n)
		piece("kv.sort", func() error {
			for _, p := range pairs {
				i := kv.Partition(p.Key, n)
				parts[i] = append(parts[i], p)
			}
			for i := range parts {
				kv.SortPairs(parts[i])
			}
			return nil
		})
		if j.CombineF == nil {
			continue
		}
		for _, part := range parts {
			if len(part) == 0 {
				continue
			}
			in := streaming.RenderKVLines(part)
			if err := piece("streaming.vm_combine", func() (err error) { out, _, err = j.CombineF.Run(in); return }); err != nil {
				return err
			}
			if err := piece("streaming.parse_kv", func() (err error) { _, err = streaming.ParseKVLines(out, j.Schema); return }); err != nil {
				return err
			}
		}
	}
	if len(x.committed) == 0 {
		return nil
	}
	piece("seqfile.commit_sum", func() error {
		for _, parts := range x.committed {
			for _, part := range parts {
				seqfile.PartitionSum(j.Schema, part)
				x.tr.add("seqfile.sums", 1)
			}
		}
		return nil
	})
	for _, inputs := range x.reduceIns {
		piece("kv.merge", func() error { streaming.MergeSorted(inputs); return nil })
	}
	return nil
}

// compileLayers times one set-up compile layer by layer, each at its
// public call: the MiniC front end, the SSA optimizer and the bytecode
// lowering on every source, and the whole translator on every
// directive-annotated source.
func compileLayers(progs []mr.JobProgram, rec *recorder, vals map[string]float64) error {
	timed := func(name string, f func() error) error {
		id := rec.begin(name, 0)
		err := f()
		vals[name+"_s"] += rec.end(id).Seconds()
		return err
	}
	for _, p := range progs {
		sources := []struct {
			src        string
			translated bool // directive-annotated: compiled by the translator
		}{{p.MapSrc, true}, {p.CombineSrc, true}, {p.ReduceSrc, false}}
		for _, s := range sources {
			src := s.src
			if src == "" {
				continue
			}
			var prog *minic.Program
			if err := timed("minic.parse", func() (err error) { prog, err = minic.ParseAndCheck(src); return }); err != nil {
				return err
			}
			timed("ir.optimize", func() error { ir.OptimizeProgram(prog); return nil })
			timed("bytecode.compile", func() error { bytecode.Compile(prog); return nil })
			if s.translated {
				if err := timed("compiler.compile", func() error { _, err := compiler.CompileOpts(src, compiler.Options{}); return err }); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
