package core

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gpurt"
	"repro/internal/mr"
	"repro/internal/workload"
)

func wcJob(t *testing.T, reducers int) *Job {
	t.Helper()
	wc := workload.Wordcount()
	job, err := CompileJob(JobSources{
		Name: "wordcount", Map: wc.Job.MapSrc, Combine: wc.Job.CombineSrc,
		Reduce: wc.Job.ReduceSrc, Reducers: reducers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func smallCluster() *cluster.Setup {
	s := cluster.Cluster1()
	s.Slaves = 4
	s.HDFS.DataNodes = 4
	s.HDFS.BlockSize = 2 << 10
	return &s
}

func TestCompileJobProducesCUDA(t *testing.T) {
	job := wcJob(t, 4)
	cuda := job.CUDA()
	if !strings.Contains(cuda, "__global__ void gpu_mapper") {
		t.Error("missing map kernel in CUDA output")
	}
	if !strings.Contains(cuda, "__global__ void gpu_combiner") {
		t.Error("missing combine kernel in CUDA output")
	}
	if job.Schema().KeyLen != 30 {
		t.Errorf("schema key len = %d", job.Schema().KeyLen)
	}
}

func TestCompileJobErrors(t *testing.T) {
	if _, err := CompileJob(JobSources{Name: "x", Map: "int main() { return 0; }"}); err == nil {
		t.Fatal("mapper without pragma accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	job := wcJob(t, 3)
	input := []byte(strings.Repeat("apple banana apple\ncherry banana\n", 40))
	res, err := Run(job, input, RunOptions{
		Setup: smallCluster(), Scheduler: mr.TailSched,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(res.TextOutput()), "\n") {
		parts := strings.SplitN(line, "\t", 2)
		counts[parts[0]] = parts[1]
	}
	if counts["apple"] != "80" || counts["banana"] != "80" || counts["cherry"] != "40" {
		t.Fatalf("counts = %v", counts)
	}
	if res.Stats.Makespan <= 0 {
		t.Error("no makespan recorded")
	}
	if res.Stats.MapsOnGPU == 0 {
		t.Error("no maps ran on the GPU")
	}
}

func TestRunCPUOnlyMatchesHeterogeneous(t *testing.T) {
	input := []byte(strings.Repeat("red green blue red\ngreen red\n", 30))
	run := func(sched mr.SchedulerKind) string {
		job := wcJob(t, 2)
		res, err := Run(job, input, RunOptions{Setup: smallCluster(), Scheduler: sched})
		if err != nil {
			t.Fatal(err)
		}
		return res.TextOutput()
	}
	cpu := run(mr.CPUOnly)
	het := run(mr.TailSched)
	if cpu != het {
		t.Fatalf("outputs differ:\ncpu:\n%s\nhet:\n%s", cpu, het)
	}
}

func TestRunWithFailureInjection(t *testing.T) {
	job := wcJob(t, 2)
	input := []byte(strings.Repeat("alpha beta gamma\n", 200))
	res, err := Run(job, input, RunOptions{
		Setup: smallCluster(), Scheduler: mr.GPUFirst, Faults: &faults.Plan{GPUFailureRate: 0.4}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Retries == 0 {
		t.Error("failure injection produced no retries")
	}
	if !strings.Contains(res.TextOutput(), "alpha\t200") {
		t.Errorf("output wrong after retries:\n%s", res.TextOutput())
	}
}

func TestCompareTask(t *testing.T) {
	bs := workload.BlackScholes()
	job, err := CompileJob(JobSources{Name: "bs", Map: bs.Job.MapSrc, Reducers: 0})
	if err != nil {
		t.Fatal(err)
	}
	input := bs.Gen(11, 8192)
	cmp, err := CompareTask(job, input, cluster.Cluster1(), gpurt.AllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup < 5 {
		t.Errorf("BlackScholes task speedup = %v, want >= 5", cmp.Speedup)
	}
	if cmp.Records == 0 || cmp.KVPairs == 0 {
		t.Errorf("comparison missing counters: %+v", cmp)
	}
	if cmp.GPUTimes.OutputWrite <= 0 {
		t.Error("GPU breakdown missing output write")
	}
}

func TestWarningsSurface(t *testing.T) {
	src := `
int main() {
	char *aliased;
	char buf[16];
	int x, read;
	char *line;
	size_t n = 100;
	line = (char*) malloc(100);
	strcpy(buf, "seed");
	aliased = buf;
	#pragma mapreduce mapper key(x) value(x)
	while ((read = getline(&line, &n, stdin)) != -1) {
		x = aliased[0] + read;
		printf("%d\t%d\n", x, x);
	}
	return 0;
}`
	job, err := CompileJob(JobSources{Name: "warn", Map: src, Reducers: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range job.Warnings() {
		if strings.Contains(w, "aliasing") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an aliasing warning, got %v", job.Warnings())
	}
}
