package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/mr"
	"repro/internal/streaming"
	"repro/internal/workload"
)

// sampleTable2 re-derives the recorded samples the way the fig4 sweeps
// take them: three 32 KB splits per benchmark, each run on one Cluster1
// CPU core and one K40, at the sweeps' default input seed.
func sampleTable2(b *workload.Benchmark) (table2Sample, error) {
	const variants, seed = 3, 20150615
	setup := cluster.Cluster1()
	job := b.JobFor(1)
	cj, err := mr.CompileJob(job)
	if err != nil {
		return table2Sample{}, err
	}
	dev, err := gpu.NewDevice(setup.Device)
	if err != nil {
		return table2Sample{}, err
	}
	var s table2Sample
	for v := 0; v < variants; v++ {
		input := b.Gen(seed+uint64(v)*977, table2SplitBytes)
		readTime := float64(len(input))/(setup.HDFS.DiskReadGBs*1e9) + setup.HDFS.SeekMS/1000
		cpu, err := streaming.RunMapTask(cj.MapF, cj.CombineF, input, streaming.MapTaskConfig{
			Schema: cj.Schema, NumReducers: job.NumReducers, CPU: setup.CPU, InputReadTime: readTime,
			DiskWriteGBs: setup.DiskWriteGBs, HDFSWriteGBs: setup.HDFSWriteGBs,
		})
		if err != nil {
			return table2Sample{}, err
		}
		g, err := gpurt.RunTask(dev, cj.MapC, cj.CombineC, input, gpurt.TaskConfig{
			NumReducers: job.NumReducers, Opts: gpurt.AllOptimizations(), InputReadTime: readTime,
			DiskWriteGBs: setup.DiskWriteGBs, HDFSWriteGBs: setup.HDFSWriteGBs,
		})
		if err != nil {
			return table2Sample{}, err
		}
		s.cpuDur = append(s.cpuDur, cpu.Times.Total())
		s.gpuDur = append(s.gpuDur, g.Total())
		s.outputBytes += g.OutputBytes / variants
	}
	return s, nil
}

// TestTable2SamplesMatchSampling keeps the sched-table2 durations honest:
// they must be exactly what the simulator samples today. On a mismatch it
// prints the table to record.
func TestTable2SamplesMatchSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("samples every benchmark functionally")
	}
	var lit strings.Builder
	ok := true
	for _, b := range workload.All() {
		got, err := sampleTable2(b)
		if err != nil {
			t.Fatalf("%s: %v", b.Code, err)
		}
		fmt.Fprintf(&lit, "\t%q: {\n\t\tcpuDur:      %#v,\n\t\tgpuDur:      %#v,\n\t\toutputBytes: %d,\n\t},\n",
			b.Code, got.cpuDur, got.gpuDur, got.outputBytes)
		if !reflect.DeepEqual(got, table2Samples[b.Code]) {
			ok = false
		}
	}
	if !ok {
		t.Errorf("recorded samples are stale; record:\n%s", lit.String())
	}
}
