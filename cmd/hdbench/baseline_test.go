package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/perf"
)

// copyBaseline copies the committed BENCH_baseline.json into a temp dir and
// returns the copy's path and its decoded contents.
func copyBaseline(t *testing.T) (string, *perf.Baseline) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, base
}

// filteredRun is a one-benchmark measurement of name, as `hdbench
// -baseline -filter` produces, stamped with env.
func filteredRun(name string, env perf.Env) *perf.Baseline {
	return &perf.Baseline{
		Schema: perf.BaselineSchema, Created: "2000-01-01T00:00:00Z", Env: env, Repeat: 1,
		Benchmarks: map[string]perf.BenchResult{
			name: {Samples: []perf.Sample{{N: 7, NsPerOp: 123, AllocsPerOp: 4, BytesPerOp: 56}}},
		},
	}
}

// TestFilteredBaselineMergesOneEntry pins `hdbench -baseline -filter X`'s
// write: on a copy of the committed file, only X's entry changes; the
// header and every other entry stay as they were.
func TestFilteredBaselineMergesOneEntry(t *testing.T) {
	path, before := copyBaseline(t)
	const x = "BenchmarkTable3"
	if _, ok := before.Benchmarks[x]; !ok {
		t.Fatalf("committed baseline has no %s entry", x)
	}
	cur := filteredRun(x, before.Env)
	if err := writeBaseline(path, cur, false); err != nil {
		t.Fatal(err)
	}
	after, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Benchmarks) != len(before.Benchmarks) {
		t.Fatalf("file holds %d entries, want %d", len(after.Benchmarks), len(before.Benchmarks))
	}
	if after.Schema != before.Schema || after.Created != before.Created || after.Env != before.Env ||
		after.Repeat != before.Repeat || after.Short != before.Short {
		t.Errorf("header changed: %+v -> %+v", *before, *after)
	}
	for name, want := range before.Benchmarks {
		if name == x {
			want = cur.Benchmarks[x]
		}
		if got := after.Benchmarks[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: entry %+v, want %+v", name, got, want)
		}
	}
}

// TestBaselineWriteRefusesOtherEnv keeps a merge from mixing entries
// measured in two environments.
func TestBaselineWriteRefusesOtherEnv(t *testing.T) {
	path, before := copyBaseline(t)
	env := before.Env
	env.NumCPU++
	if err := writeBaseline(path, filteredRun("BenchmarkTable3", env), false); err == nil {
		t.Fatal("merged a measurement from another environment")
	}
	after, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Error("a refused merge changed the file")
	}
}

// TestWholeSuiteBaselineReplacesFile: a run of the whole suite, and a
// filtered run with no file yet, write exactly what they measured.
func TestWholeSuiteBaselineReplacesFile(t *testing.T) {
	path, before := copyBaseline(t)
	cur := filteredRun("BenchmarkTable3", before.Env)
	if err := writeBaseline(path, cur, true); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "new.json")
	if err := writeBaseline(fresh, cur, false); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, fresh} {
		got, err := readBaseline(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cur) {
			t.Errorf("%s holds %+v, want the measurement %+v", p, *got, *cur)
		}
	}
}
