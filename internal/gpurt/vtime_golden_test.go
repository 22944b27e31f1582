package gpurt_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/compiler"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// The test lives in an external package: workload imports mr, which
// imports gpurt.

// helperChainSrc is a mapper whose body calls a helper that reads a
// global and calls a second helper, so a kernel runs program functions
// two calls deep.
const helperChainSrc = `
int scale = 3;
double half(double x) { return x * 0.3 + 1.7; }
double weigh(int v) {
	double w = half(v) * scale;
	if (v % 3 == 0) w = w + half(w);
	return w;
}
int main() {
	int id, read; double val;
	char *line;
	size_t n = 1000;
	line = (char*) malloc(1000);
	#pragma mapreduce mapper key(id) value(val) kvpairs(1) blocks(3) threads(16)
	while ((read = getline(&line, &n, stdin)) != -1) {
		id = atoi(line);
		val = weigh(id) + weigh(id + 1);
		printf("%d\t%f\n", id, val);
	}
	return 0;
}`

// globalsSrc is a mapper that reads file-scope globals in its region and
// in a callee. The initializers, a builtin call and a program-function
// call among them, run once, on the host, and charge no thread. The
// region reads the globals as free symbols, and the callee reads its
// thread's copy of the host's globals at the launch point, whose tag
// points at the thread's copy of the host's literal, in local memory,
// where the thread's machine allocates: probe's strlen charges its loads
// there. mix is long enough that the order of its charges would show in
// the M2090's cycle bits.
const globalsSrc = `
double root2 = sqrt(2.0);
int base = 4;
int twice(int x) { return 2 * x; }
int scaled = twice(5);
int shifted = base + 3;
double mix = root2 * 1.5 + scaled / 3.0 - base * 0.7 + root2 * root2 / 1.3 + shifted * 0.11 - root2 / 7.0 + base * root2 * 0.9 + scaled * 0.37;
int table[4];
char *tag = "ab";
int probe(int v) { return table[v % 4] + shifted + strlen(tag); }
int main() {
	int id, read; double val;
	char *line;
	size_t n = 1000;
	line = (char*) malloc(1000);
	#pragma mapreduce mapper key(id) value(val) kvpairs(1) blocks(2) threads(16)
	while ((read = getline(&line, &n, stdin)) != -1) {
		id = atoi(line) + scaled;
		val = root2 * id + probe(id) + table[id % 4] + mix;
		printf("%d\t%f\n", id, val);
	}
	return 0;
}`

// TestGPUVirtualTimeGolden pins the bits of GPU virtual time on both
// devices. The K40's costs are multiples of 1/4, so its cycle sums are
// exact in any order; the M2090's op cost (2.6) and register cost (0.3)
// are not, so its sums change if the order of any two charges changes.
// Every StageTimes field and every kernel profile's seconds, occupancy,
// straggler skew and per-space cycles print as hex floats.
func TestGPUVirtualTimeGolden(t *testing.T) {
	var lines bytes.Buffer
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&lines, "%d\n", i*7+2)
	}
	cases := []struct {
		name            string
		mapSrc, combSrc string
		input           []byte
		reducers        int
	}{
		{"WC", workload.WordcountMap, workload.WordcountCombine, workload.TextCorpus(3, 3<<10), 2},
		{"BS", workload.BlackScholesMap, "", workload.Options(3, 2<<10), 0},
		{"KM", workload.KmeansMap, "", workload.MovieRatings(3, 3<<10), 2},
		{"helper-chain", helperChainSrc, "", lines.Bytes(), 0},
		{"globals", globalsSrc, "", lines.Bytes(), 0},
	}
	devices := []struct {
		name string
		cfg  gpu.DeviceConfig
	}{
		{"K40", gpu.TeslaK40()},
		{"M2090", gpu.TeslaM2090()},
	}
	hex := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	var buf bytes.Buffer
	for _, tc := range cases {
		mapC, err := compiler.Compile(tc.mapSrc)
		if err != nil {
			t.Fatalf("%s map: %v", tc.name, err)
		}
		var combC *compiler.Compiled
		if tc.combSrc != "" {
			if combC, err = compiler.Compile(tc.combSrc); err != nil {
				t.Fatalf("%s combine: %v", tc.name, err)
			}
		}
		for _, d := range devices {
			dev, err := gpu.NewDevice(d.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := gpurt.RunTask(dev, mapC, combC, tc.input, gpurt.TaskConfig{NumReducers: tc.reducers, Opts: gpurt.AllOptimizations()})
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, d.name, err)
			}
			fmt.Fprintf(&buf, "== %s on %s: %d records, %d pairs ==\n", tc.name, d.name, res.Records, res.KVPairs)
			for _, st := range res.Times.Stages() {
				fmt.Fprintf(&buf, "stage %s %s\n", st.Name, hex(st.Time))
			}
			for _, p := range res.Profiles {
				fmt.Fprintf(&buf, "kernel %s seconds %s occupancy %s skew %s\n",
					p.Kernel, hex(p.Seconds), hex(p.Occupancy), hex(p.StragglerSkew))
				for _, c := range p.Cycles {
					fmt.Fprintf(&buf, "  cycles %s %s\n", c.Space, hex(c.Cycles))
				}
			}
		}
	}
	golden := filepath.Join("testdata", "vtime.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/gpurt -run GPUVirtualTimeGolden -update`): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("GPU virtual time differs from %s (re-run with -update only for an intended cost-model change)\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}
