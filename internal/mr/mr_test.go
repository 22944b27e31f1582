package mr

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/hdfs"
	"repro/internal/kv"
	"repro/internal/streaming"
)

const wcMapSrc = `
int getWord(char *line, int offset, char *word, int read, int maxw) {
	int i = offset, j = 0;
	while (i < read && (line[i] == ' ' || line[i] == '\n' || line[i] == '\t')) i++;
	while (i < read && line[i] != ' ' && line[i] != '\n' && line[i] != '\t' && j < maxw - 1) {
		word[j] = line[i];
		i++; j++;
	}
	if (j == 0) return -1;
	word[j] = '\0';
	return i - offset;
}
int main() {
	char word[30], *line;
	size_t nbytes = 10000;
	int read, linePtr, offset, one;
	line = (char*) malloc(nbytes * sizeof(char));
	#pragma mapreduce mapper key(word) value(one) keylength(30) kvpairs(32) blocks(4) threads(32)
	while ((read = getline(&line, &nbytes, stdin)) != -1) {
		linePtr = 0;
		offset = 0;
		one = 1;
		while ((linePtr = getWord(line, offset, word, read, 30)) != -1) {
			printf("%s\t%d\n", word, one);
			offset += linePtr;
		}
	}
	free(line);
	return 0;
}`

const wcCombineSrc = `
int main() {
	char word[30], prevWord[30];
	prevWord[0] = '\0';
	int count, val, read;
	count = 0;
	#pragma mapreduce combiner key(prevWord) value(count) keyin(word) valuein(val) keylength(30) firstprivate(prevWord, count) blocks(2) threads(64)
	{
		while ((read = scanf("%s %d", word, &val)) == 2) {
			if (strcmp(word, prevWord) == 0) {
				count += val;
			} else {
				if (prevWord[0] != '\0')
					printf("%s\t%d\n", prevWord, count);
				strcpy(prevWord, word);
				count = val;
			}
		}
		if (prevWord[0] != '\0')
			printf("%s\t%d\n", prevWord, count);
	}
	return 0;
}`

// The wordcount reducer is the combiner without directives.
const wcReduceSrc = `
int main() {
	char word[30], prevWord[30];
	prevWord[0] = '\0';
	int count, val, read;
	count = 0;
	while ((read = scanf("%s %d", word, &val)) == 2) {
		if (strcmp(word, prevWord) == 0) {
			count += val;
		} else {
			if (prevWord[0] != '\0')
				printf("%s\t%d\n", prevWord, count);
			strcpy(prevWord, word);
			count = val;
		}
	}
	if (prevWord[0] != '\0')
		printf("%s\t%d\n", prevWord, count);
	return 0;
}`

func wcJob(t *testing.T) *CompiledJob {
	t.Helper()
	job, err := CompileJob(JobProgram{
		Name: "wordcount", MapSrc: wcMapSrc, CombineSrc: wcCombineSrc,
		ReduceSrc: wcReduceSrc, NumReducers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func corpus(lines int) []byte {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	var b bytes.Buffer
	for i := 0; i < lines; i++ {
		for j := 0; j < 4+i%3; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[(i*5+j*3)%len(words)])
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func testHW(t *testing.T) HardwareModel {
	t.Helper()
	dev, err := gpu.NewDevice(gpu.TeslaK40())
	if err != nil {
		t.Fatal(err)
	}
	return HardwareModel{
		CPU:    streaming.XeonE52680(),
		Device: dev,
		Opts:   gpurt.AllOptimizations(),
	}
}

func buildExecutor(t *testing.T, lines, slaves int) *FunctionalExecutor {
	t.Helper()
	fs, err := hdfs.New(hdfs.Config{
		BlockSize: 512, Replication: 2, DataNodes: slaves,
		DiskReadGBs: 0.5, NetworkGBs: 2, SeekMS: 2,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/input", corpus(lines)); err != nil {
		t.Fatal(err)
	}
	exec, err := NewFunctionalExecutor(wcJob(t), fs, "/input", testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func outputCounts(stats *JobStats) map[string]int64 {
	out := map[string]int64{}
	for _, p := range stats.Output {
		out[string(p.Key.B)] += p.Val.I
	}
	return out
}

func referenceCounts(t *testing.T, lines int) map[string]int64 {
	t.Helper()
	f, err := streaming.NewFilter("ref", wcMapSrc)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := f.Run(corpus(lines))
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := streaming.ParseKVLines(out, kv.Schema{KeyKind: kv.Bytes, ValKind: kv.Int, KeyLen: 30})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]int64{}
	for _, p := range pairs {
		ref[string(p.Key.B)] += p.Val.I
	}
	return ref
}

func TestCPUOnlyJobProducesCorrectOutput(t *testing.T) {
	exec := buildExecutor(t, 60, 4)
	stats, err := RunJob(ClusterConfig{
		Slaves: 4, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1},
		Scheduler: CPUOnly, HeartbeatSec: 1,
	}, exec)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceCounts(t, 60)
	got := outputCounts(stats)
	if len(got) != len(want) {
		t.Fatalf("distinct words %d, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count[%q] = %d, want %d", w, got[w], c)
		}
	}
	if stats.MapsOnGPU != 0 {
		t.Errorf("CPU-only job ran %d maps on GPU", stats.MapsOnGPU)
	}
	if stats.Makespan <= 0 {
		t.Error("makespan not positive")
	}
}

func TestHeterogeneousJobMatchesCPUOnlyOutput(t *testing.T) {
	for _, sched := range []SchedulerKind{GPUFirst, TailSched} {
		t.Run(sched.String(), func(t *testing.T) {
			exec := buildExecutor(t, 60, 4)
			stats, err := RunJob(ClusterConfig{
				Slaves: 4, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
				Scheduler: sched, HeartbeatSec: 1,
			}, exec)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceCounts(t, 60)
			got := outputCounts(stats)
			for w, c := range want {
				if got[w] != c {
					t.Errorf("count[%q] = %d, want %d", w, got[w], c)
				}
			}
			if stats.MapsOnGPU == 0 {
				t.Errorf("%v scheduler never used the GPU", sched)
			}
		})
	}
}

func TestMapOnlyJobEndToEnd(t *testing.T) {
	mapSrc := `
int main() {
	char *line;
	size_t n = 100;
	int read, id;
	double price;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(id) value(price) kvpairs(1) blocks(2) threads(16)
	while ((read = getline(&line, &n, stdin)) != -1) {
		id = atoi(line);
		price = id * 1.25;
		printf("%d\t%f\n", id, price);
	}
	return 0;
}`
	job, err := CompileJob(JobProgram{Name: "maponly", MapSrc: mapSrc, NumReducers: 0})
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := hdfs.New(hdfs.Config{BlockSize: 64, Replication: 1, DataNodes: 2,
		DiskReadGBs: 0.5, NetworkGBs: 2}, 3)
	var b bytes.Buffer
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	fs.Write("/in", b.Bytes())
	exec, err := NewFunctionalExecutor(job, fs, "/in", testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunJob(ClusterConfig{
		Slaves: 2, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 1,
	}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Output) != 40 {
		t.Fatalf("output pairs = %d, want 40", len(stats.Output))
	}
	// Canonical order (sorted) with correct values.
	for i, p := range stats.Output {
		if p.Key.I != int64(i) || p.Val.F != float64(i)*1.25 {
			t.Fatalf("output[%d] = %v", i, p)
		}
	}
}

func TestGPUFaultToleranceRetries(t *testing.T) {
	exec := buildExecutor(t, 300, 4)
	stats, err := RunJob(ClusterConfig{
		Slaves: 4, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 1, Faults: &faults.Plan{GPUFailureRate: 0.5}, Seed: 11,
	}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries == 0 {
		t.Fatal("failure injection produced no retries")
	}
	// Output must still be correct despite failures.
	want := referenceCounts(t, 300)
	got := outputCounts(stats)
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count[%q] = %d, want %d (after retries)", w, got[w], c)
		}
	}
}

func TestDataLocalityPreferred(t *testing.T) {
	exec := buildExecutor(t, 200, 4)
	stats, err := RunJob(ClusterConfig{
		Slaves: 4, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1},
		Scheduler: CPUOnly, HeartbeatSec: 1,
	}, exec)
	if err != nil {
		t.Fatal(err)
	}
	total := stats.MapsOnCPU + stats.MapsOnGPU
	if stats.DataLocalMaps*2 < total {
		t.Errorf("only %d/%d maps were data-local", stats.DataLocalMaps, total)
	}
}

// fig3Executor reproduces the Figure-3 scenario: uniform tasks, GPU 6x
// faster than a CPU slot.
func fig3Executor(tasks int) *SampledExecutor {
	return &SampledExecutor{
		Splits: tasks, Reducers: 0, Slaves: 1,
		CPUDur: []float64{60}, GPUDur: []float64{10},
	}
}

func TestTailSchedulingBeatsGPUFirstFig3(t *testing.T) {
	run := func(sched SchedulerKind) float64 {
		stats, err := RunJob(ClusterConfig{
			Slaves: 1, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
			Scheduler: sched, HeartbeatSec: 0.5,
		}, fig3Executor(19))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Makespan
	}
	gpuFirst := run(GPUFirst)
	tail := run(TailSched)
	if tail >= gpuFirst {
		t.Fatalf("tail scheduling (%v) not faster than GPU-first (%v) in the Fig. 3 scenario", tail, gpuFirst)
	}
	// The improvement should be meaningful: GPU-first strands the GPU while
	// two 60s CPU tasks finish the job; tail forces them onto the GPU.
	if gpuFirst-tail < 20 {
		t.Errorf("tail saved only %v s; expected the ~40s CPU-task tail to vanish", gpuFirst-tail)
	}
}

func TestTailForcesGPUTasks(t *testing.T) {
	stats, err := RunJob(ClusterConfig{
		Slaves: 1, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: TailSched, HeartbeatSec: 0.5,
	}, fig3Executor(19))
	if err != nil {
		t.Fatal(err)
	}
	if stats.ForcedGPUTasks == 0 {
		t.Fatal("tail scheduler never forced a task onto the GPU")
	}
	if stats.MaxSpeedup < 5 {
		t.Errorf("observed max speedup = %v, want ~6", stats.MaxSpeedup)
	}
}

func TestGPUFirstUsesAllSlots(t *testing.T) {
	stats, err := RunJob(ClusterConfig{
		Slaves: 2, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
		Scheduler: GPUFirst, HeartbeatSec: 0.5,
	}, &SampledExecutor{Splits: 40, Reducers: 0, Slaves: 2,
		CPUDur: []float64{30}, GPUDur: []float64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapsOnCPU == 0 || stats.MapsOnGPU == 0 {
		t.Fatalf("GPU-first should use both devices: cpu=%d gpu=%d", stats.MapsOnCPU, stats.MapsOnGPU)
	}
	if stats.MapsOnCPU+stats.MapsOnGPU != 40 {
		t.Fatalf("tasks lost: %d + %d != 40", stats.MapsOnCPU, stats.MapsOnGPU)
	}
}

func TestHeterogeneousFasterThanCPUOnly(t *testing.T) {
	// Compute-bound sampled tasks: GPU 10x. One GPU per node must beat
	// CPU-only meaningfully (the Fig. 4 headline effect).
	cpuOnly, err := RunJob(ClusterConfig{
		Slaves: 4, Node: NodeConfig{MapSlots: 4, ReduceSlots: 1},
		Scheduler: CPUOnly, HeartbeatSec: 1,
	}, &SampledExecutor{Splits: 160, Reducers: 0, Slaves: 4,
		CPUDur: []float64{40}, GPUDur: []float64{4}})
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := RunJob(ClusterConfig{
		Slaves: 4, Node: NodeConfig{MapSlots: 4, ReduceSlots: 1, GPUs: 1},
		Scheduler: TailSched, HeartbeatSec: 1,
	}, &SampledExecutor{Splits: 160, Reducers: 0, Slaves: 4,
		CPUDur: []float64{40}, GPUDur: []float64{4}})
	if err != nil {
		t.Fatal(err)
	}
	speedup := cpuOnly.Makespan / hetero.Makespan
	if speedup < 1.5 {
		t.Fatalf("heterogeneous speedup = %.2f, want > 1.5 on compute-bound tasks", speedup)
	}
}

func TestMultiGPUScaling(t *testing.T) {
	run := func(gpus int) float64 {
		stats, err := RunJob(ClusterConfig{
			Slaves: 2, Node: NodeConfig{MapSlots: 4, ReduceSlots: 1, GPUs: gpus},
			Scheduler: TailSched, HeartbeatSec: 1,
		}, &SampledExecutor{Splits: 200, Reducers: 0, Slaves: 2,
			CPUDur: []float64{40}, GPUDur: []float64{4}})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Makespan
	}
	t1, t2, t3 := run(1), run(2), run(3)
	if !(t3 < t2 && t2 < t1) {
		t.Fatalf("no multi-GPU scaling: 1GPU=%v 2GPU=%v 3GPU=%v", t1, t2, t3)
	}
}

func TestJobDeterministic(t *testing.T) {
	run := func() *JobStats {
		exec := buildExecutor(t, 40, 3)
		stats, err := RunJob(ClusterConfig{
			Slaves: 3, Node: NodeConfig{MapSlots: 2, ReduceSlots: 1, GPUs: 1},
			Scheduler: TailSched, HeartbeatSec: 1, Seed: 5,
		}, exec)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.MapsOnGPU != b.MapsOnGPU || len(a.Output) != len(b.Output) {
		t.Fatalf("nondeterministic job: %+v vs %+v", a, b)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	cases := []ClusterConfig{
		{Slaves: 0, Node: NodeConfig{MapSlots: 1}},
		{Slaves: 1, Node: NodeConfig{}},
		{Slaves: 1, Node: NodeConfig{MapSlots: 1}, Scheduler: GPUFirst},
		{Slaves: 1, Node: NodeConfig{MapSlots: 1, GPUs: 1}, Scheduler: CPUOnly},
	}
	for i, cfg := range cases {
		cfg.fillDefaults()
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestCompileJobErrors(t *testing.T) {
	if _, err := CompileJob(JobProgram{Name: "bad", MapSrc: "int main() { return 0; }"}); err == nil {
		t.Error("mapper without pragma accepted")
	}
	if _, err := CompileJob(JobProgram{Name: "bad2", MapSrc: wcMapSrc, CombineSrc: "int main() {"}); err == nil {
		t.Error("broken combiner accepted")
	}
	if _, err := CompileJob(JobProgram{Name: "bad3", MapSrc: wcMapSrc, ReduceSrc: "int main() { return x; }"}); err == nil {
		t.Error("broken reducer accepted")
	}
}

// TestCompileJobNamesUnloweredFunction pins what happens to a construct
// the bytecode compiler cannot lower (here a local array of unspecified
// length): compilation fails, and the error names the job, the stage, and
// the function.
func TestCompileJobNamesUnloweredFunction(t *testing.T) {
	const helper = "int helper() { int buf[]; return 0; }\n"
	for _, tc := range []struct {
		stage string
		job   JobProgram
	}{
		{"mapper", JobProgram{MapSrc: helper + wcMapSrc}},
		{"combiner", JobProgram{MapSrc: wcMapSrc, CombineSrc: helper + wcCombineSrc}},
		{"reducer", JobProgram{MapSrc: wcMapSrc, ReduceSrc: helper + wcReduceSrc, NumReducers: 1}},
	} {
		tc.job.Name = "unlowered-" + tc.stage
		_, err := CompileJob(tc.job)
		if err == nil {
			t.Fatalf("%s: CompileJob accepted an unlowerable function", tc.stage)
		}
		msg := err.Error()
		for _, want := range []string{"job " + tc.job.Name + " " + tc.stage + ":", `function "helper"`, `array "buf" has unspecified length`} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error %q does not contain %q", tc.stage, msg, want)
			}
		}
	}
}

func TestSampledExecutorLocations(t *testing.T) {
	x := &SampledExecutor{Splits: 10, Slaves: 4, CPUDur: []float64{1}, GPUDur: []float64{1}}
	for i := 0; i < 10; i++ {
		for _, n := range x.Locations(i) {
			if n < 0 || n >= 4 {
				t.Fatalf("split %d location %d out of range", i, n)
			}
		}
	}
	// Remote penalty applies off-replica.
	x.RemoteReadPenalty = 5
	att, _ := x.MapTask(0, false, x.Locations(0)[0])
	attRemote, _ := x.MapTask(0, false, (x.Locations(0)[0]+1)%4)
	local := att.Duration
	if attRemote.Duration <= local {
		// Node might coincidentally hold a replica; find a non-replica node.
		for n := 0; n < 4; n++ {
			isRep := false
			for _, loc := range x.Locations(0) {
				if loc == n {
					isRep = true
				}
			}
			if !isRep {
				attR, _ := x.MapTask(0, false, n)
				if attR.Duration <= local {
					t.Fatalf("remote penalty not applied: %v <= %v", attR.Duration, local)
				}
				return
			}
		}
	}
}
