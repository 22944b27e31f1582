package mr

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runWCTail executes the functional wordcount job under tail scheduling
// with the given recorder and returns its stats plus the executor used.
func runWCTail(t *testing.T, rec *obs.Recorder) (*JobStats, *FunctionalExecutor) {
	t.Helper()
	exec := buildExecutor(t, 120, 4)
	stats, err := RunJob(ClusterConfig{
		Name: "wordcount", Slaves: 4,
		Node:      NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: TailSched, HeartbeatSec: 0.001, Seed: 11, Obs: rec,
	}, exec)
	if err != nil {
		t.Fatal(err)
	}
	return stats, exec
}

// attrJSON returns a span attribute's raw JSON value ("" when absent).
func attrJSON(s *obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.JSON()
		}
	}
	return ""
}

func TestTraceStructureWordcountTail(t *testing.T) {
	rec := obs.NewRecorder()
	stats, exec := runWCTail(t, rec)

	var buf bytes.Buffer
	if err := rec.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	spans := rec.Tracer().Spans()
	cats := map[string]bool{}
	wins := map[int]int{}
	for i := range spans {
		s := &spans[i]
		cats[s.Cat] = true
		if s.Begin < 0 || s.End < s.Begin {
			t.Fatalf("span %s/%s has non-monotonic times [%v, %v]", s.Cat, s.Name, s.Begin, s.End)
		}
		switch s.Cat {
		case obs.CatMapCPU, obs.CatMapGPU, obs.CatSpeculative:
			if attrJSON(s, "state") == `"won"` {
				split, err := strconv.Atoi(attrJSON(s, "split"))
				if err != nil {
					t.Fatalf("map span without split attr: %+v", s)
				}
				wins[split]++
			}
		}
	}
	if len(cats) < 5 {
		t.Fatalf("only %d span categories recorded: %v", len(cats), cats)
	}
	for _, c := range []string{obs.CatJob, obs.CatHeartbeat, obs.CatShuffle, obs.CatReduce} {
		if !cats[c] {
			t.Fatalf("category %s missing from trace (have %v)", c, cats)
		}
	}
	for split := 0; split < exec.NumSplits(); split++ {
		if wins[split] != 1 {
			t.Fatalf("split %d covered by %d winning spans, want exactly 1", split, wins[split])
		}
	}
	if stats.MapsOnGPU > 0 && !cats[obs.CatKernel] {
		t.Fatal("GPU maps ran but no kernel sub-spans were recorded")
	}
	if stats.MapPhaseEnd <= 0 || stats.MapPhaseEnd > stats.Makespan {
		t.Fatalf("MapPhaseEnd %v outside (0, makespan %v]", stats.MapPhaseEnd, stats.Makespan)
	}

	var prom bytes.Buffer
	if err := rec.Metrics().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	dump := prom.String()
	for _, want := range []string{
		`mr_map_duration_seconds_bucket{device="gpu",sched="tail",le=`,
		`mr_map_duration_seconds_bucket{device="cpu",sched="tail",le=`,
		`gpu_kernel_cycles_total{kernel="map",space="global"}`,
		`mr_heartbeats_total{sched="tail"}`,
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, dump)
		}
	}
}

func TestTraceAndMetricsDeterministic(t *testing.T) {
	dump := func() (string, string) {
		rec := obs.NewRecorder()
		runWCTail(t, rec)
		var tr, pm bytes.Buffer
		if err := rec.Tracer().WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		if err := rec.Metrics().WriteProm(&pm); err != nil {
			t.Fatal(err)
		}
		return tr.String(), pm.String()
	}
	t1, p1 := dump()
	t2, p2 := dump()
	if t1 != t2 {
		t.Fatal("same seed produced different traces")
	}
	if p1 != p2 {
		t.Fatal("same seed produced different metrics dumps")
	}
}

func TestObservabilityDoesNotChangeJobStats(t *testing.T) {
	run := func(rec *obs.Recorder) *JobStats {
		stats, err := RunJob(ClusterConfig{
			Slaves: 2, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
			Scheduler: TailSched, HeartbeatSec: 0.5, Seed: 5, Obs: rec,
		}, uniformExec(60, 2, 2, 10, 2))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	plain := run(nil)
	observed := run(obs.NewRecorder())
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("recorder changed JobStats:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

func TestGoldenTraceTailSampled(t *testing.T) {
	rec := obs.NewRecorder()
	_, err := RunJob(ClusterConfig{
		Name: "golden", Slaves: 2,
		Node:      NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: TailSched, HeartbeatSec: 0.5, Seed: 9, Obs: rec,
	}, uniformExec(12, 2, 2, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	trace, prom := exportRecorder(t, rec)
	checkGolden(t, "tail_trace.golden.json", trace)
	checkGolden(t, "tail_trace.golden.prom", prom)
}

// TestGoldenTraceFunctionalGPU pins the export bytes of a functional job
// whose GPU maps record kernel spans with float args (cycles, occupancy,
// skew) and fill the gpu_kernel_* histograms.
func TestGoldenTraceFunctionalGPU(t *testing.T) {
	rec := obs.NewRecorder()
	stats, _ := runWCTail(t, rec)
	if stats.MapsOnGPU == 0 {
		t.Fatal("fixture ran no GPU maps")
	}
	trace, prom := exportRecorder(t, rec)
	for _, want := range []string{`"cat":"kernel"`, `"occupancy":`, `"skew":`} {
		if !bytes.Contains(trace, []byte(want)) {
			t.Fatalf("fixture trace lacks %s", want)
		}
	}
	if !bytes.Contains(prom, []byte("gpu_kernel_occupancy_bucket{")) {
		t.Fatal("fixture dump lacks the gpu_kernel_occupancy histogram")
	}
	checkGolden(t, "gpu_trace.golden.json", trace)
	checkGolden(t, "gpu_trace.golden.prom", prom)
}

// exportRecorder renders rec's Chrome trace and Prometheus dump.
func exportRecorder(t *testing.T, rec *obs.Recorder) (trace, prom []byte) {
	t.Helper()
	var tb, pb bytes.Buffer
	if err := rec.Tracer().WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := rec.Metrics().WriteProm(&pb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), pb.Bytes()
}

// checkGolden compares got with testdata/name, or rewrites that file when
// the test runs with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/mr -run Golden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("export differs from %s (re-run with -update if the change is intended)", golden)
	}
}

// locExec is a minimal Executor exposing only split locations, for driving
// the jobTracker index directly.
type locExec struct {
	locs [][]int
}

func (x *locExec) NumSplits() int            { return len(x.locs) }
func (x *locExec) NumReducers() int          { return 0 }
func (x *locExec) Locations(split int) []int { return x.locs[split] }
func (x *locExec) MapTask(split int, onGPU bool, node int) (MapAttempt, error) {
	return MapAttempt{Duration: 1}, nil
}
func (x *locExec) ReduceTask(p int, inputs [][]kv.Pair) (ReduceWork, error) {
	return ReduceWork{}, nil
}

// refTracker is the pre-index O(pending x locations) takeMap, kept as the
// behavioral reference for the indexed implementation.
type refTracker struct {
	pending    []int
	pendingSet map[int]bool
	exec       Executor
}

func (rt *refTracker) takeMap(node int) (int, bool, bool) {
	if len(rt.pending) == 0 {
		return 0, false, false
	}
	for i, split := range rt.pending {
		for _, loc := range rt.exec.Locations(split) {
			if loc == node {
				rt.pending = append(rt.pending[:i], rt.pending[i+1:]...)
				delete(rt.pendingSet, split)
				return split, true, true
			}
		}
	}
	split := rt.pending[0]
	rt.pending = rt.pending[1:]
	delete(rt.pendingSet, split)
	return split, false, true
}

func (rt *refTracker) requeue(split int) {
	if !rt.pendingSet[split] {
		rt.pending = append(rt.pending, split)
		rt.pendingSet[split] = true
	}
}

func TestTakeMapIndexMatchesReferenceScan(t *testing.T) {
	const slaves = 5
	const splits = 300
	rng := sim.NewRNG(99)
	exec := &locExec{}
	for i := 0; i < splits; i++ {
		a := int(rng.Uint64() % slaves)
		b := int(rng.Uint64() % slaves)
		exec.locs = append(exec.locs, []int{a, b})
	}
	cfg := ClusterConfig{Slaves: slaves, Node: NodeConfig{MapSlots: 1}}
	jt := newJobTracker(cfg, exec)
	ref := &refTracker{pendingSet: map[int]bool{}, exec: exec}
	for i := 0; i < splits; i++ {
		ref.pending = append(ref.pending, i)
		ref.pendingSet[i] = true
	}

	var taken []int
	for step := 0; step < 4*splits; step++ {
		switch {
		case len(taken) > 0 && rng.Uint64()%4 == 0:
			// Requeue a previously taken split (failure path) in both.
			i := int(rng.Uint64() % uint64(len(taken)))
			split := taken[i]
			taken = append(taken[:i], taken[i+1:]...)
			jt.requeue(split)
			ref.requeue(split)
		default:
			node := int(rng.Uint64() % slaves)
			gs, gl, gok := jt.takeMap(node)
			ws, wl, wok := ref.takeMap(node)
			if gs != ws || gl != wl || gok != wok {
				t.Fatalf("step %d node %d: indexed (%d,%v,%v) != reference (%d,%v,%v)",
					step, node, gs, gl, gok, ws, wl, wok)
			}
			if gok {
				taken = append(taken, gs)
			}
		}
	}
	if jt.pendingCount() != len(ref.pending) {
		t.Fatalf("pending count drifted: indexed %d, reference %d", jt.pendingCount(), len(ref.pending))
	}
}

func TestTakeMapMakespanMatchesReferencePlacement(t *testing.T) {
	// The same jobs the engine tests run must produce identical makespans
	// across two runs (the index is deterministic), and every placement
	// statistic must be stable.
	run := func() *JobStats {
		stats, err := RunJob(ClusterConfig{
			Slaves: 4, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
			Scheduler: TailSched, HeartbeatSec: 0.5, Seed: 3, Faults: &faults.Plan{GPUFailureRate: 0.2},
		}, uniformExec(150, 4, 4, 10, 2))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic placement:\n%+v\nvs\n%+v", a, b)
	}
	if a.DataLocalMaps < 0 || a.MapsOnCPU+a.MapsOnGPU != 150 {
		t.Fatalf("bad placement stats: %+v", a)
	}
}

func TestGPUQueueDepthBounded(t *testing.T) {
	rec := obs.NewRecorder()
	const gpus = 2
	stats, err := RunJob(ClusterConfig{
		Slaves: 1, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: gpus},
		Scheduler: GPUFirst, HeartbeatSec: 0.5, Obs: rec,
	}, uniformExec(100, 0, 1, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	// With prefetch computed from busy GPU slots, the driver queue never
	// holds more than one waiting task per GPU.
	if stats.GPUQueuePeak > gpus {
		t.Fatalf("GPU queue peaked at %d, want <= %d", stats.GPUQueuePeak, gpus)
	}
	g := rec.Metrics().Gauge("mr_gpu_queue_depth", "", obs.L("sched", "gpu-first"))
	if g.Value() != 0 {
		t.Fatalf("queue depth gauge ended at %v, want 0 (all drained)", g.Value())
	}
	if int(g.Peak()) != stats.GPUQueuePeak {
		t.Fatalf("gauge peak %v != stats peak %d", g.Peak(), stats.GPUQueuePeak)
	}
	if stats.GPUQueuePeak > 0 && stats.GPUQueueWaitSec <= 0 {
		t.Fatal("tasks queued but no wait time accounted")
	}
}
