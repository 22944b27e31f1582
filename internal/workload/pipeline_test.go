package workload

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/kv"
	"repro/internal/mr"
	"repro/internal/streaming"
)

// runPipeline executes a benchmark's full map -> combine -> reduce chain on
// the CPU path over one generated input and returns the final output pairs.
func runPipeline(t *testing.T, b *Benchmark, inputBytes int) []kv.Pair {
	t.Helper()
	job := b.JobFor(1)
	if job.NumReducers > 4 {
		job.NumReducers = 4
	}
	cj, err := mr.CompileJob(job)
	if err != nil {
		t.Fatal(err)
	}
	input := b.Gen(31, inputBytes)
	res, err := streaming.RunMapTask(cj.MapF, cj.CombineF, input, streaming.MapTaskConfig{
		Schema: cj.Schema, NumReducers: job.NumReducers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.NumReducers == 0 {
		return res.MapOutput
	}
	var out []kv.Pair
	for p := 0; p < job.NumReducers; p++ {
		final, _, err := streaming.RunReduce(cj.ReduceF, cj.Schema, [][]kv.Pair{res.Partitions[p]}, streaming.XeonE52680(), nil)
		if err != nil {
			t.Fatalf("reduce %d: %v", p, err)
		}
		out = append(out, final...)
	}
	return out
}

func countLines(t *testing.T, b *Benchmark, inputBytes int) int {
	t.Helper()
	data := b.Gen(31, inputBytes)
	return strings.Count(string(data), "\n")
}

func TestHistmoviesPipelineSemantics(t *testing.T) {
	b := Histmovies()
	out := runPipeline(t, b, 8192)
	lines := countLines(t, b, 8192)
	var total int64
	for _, p := range out {
		// Bins are 2*avg for ratings 1..9: range [2, 18].
		if p.Key.I < 2 || p.Key.I > 18 {
			t.Errorf("bin %d out of range", p.Key.I)
		}
		if p.Val.I <= 0 {
			t.Errorf("non-positive bin count %v", p)
		}
		total += p.Val.I
	}
	// Every movie lands in exactly one bin.
	if total != int64(lines) {
		t.Errorf("binned movies = %d, want %d", total, lines)
	}
}

func TestHistratingsPipelineSemantics(t *testing.T) {
	b := Histratings()
	out := runPipeline(t, b, 8192)
	data := string(b.Gen(31, 8192))
	// Count individual ratings in the raw input: digits after the first
	// space of each line.
	wantRatings := 0
	for _, line := range strings.Split(strings.TrimRight(data, "\n"), "\n") {
		sp := strings.IndexByte(line, ' ')
		wantRatings += len(strings.Split(line[sp+1:], ","))
	}
	var total int64
	for _, p := range out {
		if p.Key.I < 1 || p.Key.I > 9 {
			t.Errorf("rating bin %d out of range", p.Key.I)
		}
		total += p.Val.I
	}
	if total != int64(wantRatings) {
		t.Errorf("binned ratings = %d, want %d", total, wantRatings)
	}
}

func TestClassificationPipelineSemantics(t *testing.T) {
	b := Classification()
	out := runPipeline(t, b, 8192)
	lines := countLines(t, b, 8192)
	var members int64
	for _, p := range out {
		if p.Key.I < 0 || p.Key.I >= 32 {
			t.Errorf("centroid id %d out of range", p.Key.I)
		}
		members += p.Val.I
	}
	if members != int64(lines) {
		t.Errorf("classified members = %d, want %d", members, lines)
	}
}

func TestKmeansPipelineSemantics(t *testing.T) {
	b := Kmeans()
	out := runPipeline(t, b, 8192)
	if len(out) == 0 || len(out) > 32 {
		t.Fatalf("centroid count = %d, want 1..32", len(out))
	}
	for _, p := range out {
		if p.Key.I < 0 || p.Key.I >= 32 {
			t.Errorf("centroid id %d out of range", p.Key.I)
		}
		// Each value is a comma-separated vector of dim averages in [0, 9].
		dims := strings.Split(string(p.Val.B), ",")
		if len(dims) != 32 {
			t.Fatalf("centroid %d has %d dims, want 32", p.Key.I, len(dims))
		}
		for _, d := range dims {
			f, err := strconv.ParseFloat(d, 64)
			if err != nil {
				t.Fatalf("bad centroid component %q: %v", d, err)
			}
			if f < 0 || f > 9 {
				t.Errorf("centroid component %v outside rating range", f)
			}
		}
	}
}

func TestLinearRegressionPipelineSemantics(t *testing.T) {
	b := LinearRegression()
	out := runPipeline(t, b, 8192)
	// 12 regressors x 4 components = at most 48 keys, all present for a
	// reasonably sized input.
	if len(out) != 48 {
		t.Fatalf("LR output keys = %d, want 48", len(out))
	}
	byKey := map[int64]float64{}
	for _, p := range out {
		byKey[p.Key.I] = p.Val.F
	}
	for rid := int64(0); rid < 12; rid++ {
		sx := byKey[rid*4]
		sy := byKey[rid*4+1]
		sxx := byKey[rid*4+2]
		sxy := byKey[rid*4+3]
		if sxx <= 0 {
			t.Errorf("regressor %d: sum(x^2) = %v", rid, sxx)
		}
		// y ~ 3.5x + 7 with noise: the weighted sums must be positive and
		// sxy/sxx must be in a sane slope neighbourhood.
		if sx <= 0 || sy <= 0 || sxy <= 0 {
			t.Errorf("regressor %d: negative sums (%v %v %v)", rid, sx, sy, sxy)
		}
		slope := sxy / sxx
		if slope < 2 || slope > 6 {
			t.Errorf("regressor %d: slope estimate %v implausible for y=3.5x+7", rid, slope)
		}
	}
}

func TestGrepPipelineSemantics(t *testing.T) {
	b := Grep()
	out := runPipeline(t, b, 8192)
	data := string(b.Gen(31, 8192))
	wantMatches := int64(strings.Count(data, "ing"))
	var total int64
	for _, p := range out {
		if string(p.Key.B) != "ing" {
			t.Errorf("grep key %q, want the pattern", p.Key.B)
		}
		total += p.Val.I
	}
	if total != wantMatches {
		t.Errorf("pattern occurrences = %d, want %d", total, wantMatches)
	}
}

func TestWordcountPipelineSemantics(t *testing.T) {
	b := Wordcount()
	out := runPipeline(t, b, 8192)
	data := string(b.Gen(31, 8192))
	wantWords := int64(len(strings.Fields(data)))
	var total int64
	for _, p := range out {
		total += p.Val.I
	}
	if total != wantWords {
		t.Errorf("counted words = %d, want %d", total, wantWords)
	}
}

func TestBlackScholesPipelineSemantics(t *testing.T) {
	b := BlackScholes()
	out := runPipeline(t, b, 8192)
	lines := countLines(t, b, 8192)
	if len(out) != lines {
		t.Fatalf("priced options = %d, want %d", len(out), lines)
	}
	for _, p := range out {
		// Averaged call prices across the volatility sweep must be
		// non-negative and below the spot price range.
		if p.Val.F < 0 || p.Val.F > 160 {
			t.Errorf("option %d price %v implausible", p.Key.I, p.Val.F)
		}
	}
}
