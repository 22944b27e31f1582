package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// heldOutSeed is a seed the recorded references were not made from.
const heldOutSeed = 7

// The traced run builds core.Run's job from its parts and wraps the
// executor; the engine must not be able to tell. Every workload, at the
// default and a held-out seed, must give byte-identical output and
// identical JobStats traced and untraced.
func TestWrappedRunJobIsTransparent(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			in, err := w.prepare(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			plain, err := in.op()
			if err != nil {
				t.Fatalf("%s seed %d untraced: %v", w.name, seed, err)
			}
			tr := &opTrace{rec: newRecorder(), vals: map[string]float64{}}
			tr.opSpan = tr.rec.begin("op", 0)
			traced, err := in.traced(tr)
			tr.rec.end(tr.opSpan)
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", w.name, seed, err)
			}
			if !bytes.Equal(plain.out, traced.out) {
				t.Errorf("%s seed %d: traced output differs", w.name, seed)
			}
			if !reflect.DeepEqual(plain.stats, traced.stats) {
				t.Errorf("%s seed %d: traced JobStats differ", w.name, seed)
			}
			if err := in.invariants(traced); err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
			}
			if tr.vals["mr.map_calls"] == 0 || tr.vals["mr.map_computes"] == 0 {
				t.Errorf("%s seed %d: wrapper saw no map calls: %v", w.name, seed, tr.vals)
			}
			if tr.after != nil {
				if err := tr.after(); err != nil {
					t.Errorf("%s seed %d replay: %v", w.name, seed, err)
				}
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// One short run of each mode must print exactly the metrics
// BENCHMARK.json declares, with the declared units, and pass its own
// correctness gate.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := workloadNames(); strings.Join(names, "|") != want {
		t.Errorf("BENCHMARK.json workloads %v, program has %s", names, want)
	}
	w, _ := lookupWorkload("wc-faults-w2")
	in, err := load(w, heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	timed, err := runTimed(in, time.Millisecond, &report)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(in, time.Millisecond, filepath.Join(t.TempDir(), "trace.json"), &report)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode string
		res  result
		want []struct{ Name, Unit string }
	}{{"--trace 0", timed, spec.EndToEnd}, {"--trace 1", traced, spec.PerLayer}} {
		if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted <= tailMinBeyond {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", c.mode, c.res.Correct, c.res.Failed, c.res.Attempted)
		}
		if len(c.res.Metrics) != len(c.want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", c.mode, len(c.res.Metrics), len(c.want))
		}
		for _, m := range c.want {
			got, ok := c.res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", c.mode, m.Name, got, m.Unit)
			}
		}
	}
}
