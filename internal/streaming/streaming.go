// Package streaming implements the Hadoop Streaming execution model that
// HeteroDoop inherits for its CPU path (paper §2.2): map, combine, and
// reduce are unix-style filter programs (here MiniC, interpreted) that
// read records on stdin and write tab-separated KV lines on stdout. The
// package also provides the CPU-side map-task pipeline (map -> partition +
// sort -> combine) with a calibrated CPU timing model.
package streaming

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/kv"
	"repro/internal/minic"
	"repro/internal/perf"
)

// CPUModel converts interpreter cost events into CPU seconds for one core.
type CPUModel struct {
	// GHz is the core clock.
	GHz float64
	// OpCPI is cycles per interpreted scalar op; MemCPI cycles per
	// load/store (cache-mixed average).
	OpCPI  float64
	MemCPI float64
}

// XeonE52680 models Cluster1's CPU (one core of the 20).
func XeonE52680() CPUModel { return CPUModel{GHz: 2.8, OpCPI: 1.0, MemCPI: 1.6} }

// XeonX5560 models Cluster2's CPU (one core of the 12).
func XeonX5560() CPUModel { return CPUModel{GHz: 2.8, OpCPI: 1.3, MemCPI: 2.0} }

// Time converts a counting sink's totals to seconds.
func (c CPUModel) Time(s *interp.CountingSink) float64 {
	cycles := float64(s.Ops)*c.OpCPI + float64(s.Loads+s.Stores)*c.MemCPI
	return cycles / (c.GHz * 1e9)
}

// SortTime models the Hadoop map-side sort of n KV pairs with keys of
// keyBytes on one core. Comparisons touch only the distinguishing key
// prefix (~8 bytes on average), not the whole slot.
func (c CPUModel) SortTime(n, keyBytes int) float64 {
	if n < 2 {
		return 0
	}
	cmpBytes := keyBytes
	if cmpBytes > 8 {
		cmpBytes = 8
	}
	passes := math.Ceil(math.Log2(float64(n)))
	cycles := passes * float64(n) * (float64(cmpBytes)*c.MemCPI + 8*c.OpCPI)
	return cycles / (c.GHz * 1e9)
}

// Filter is a compiled streaming program.
type Filter struct {
	Name string
	Prog *minic.Program
	// Code is Prog lowered to register bytecode; the filter executes on
	// the bytecode VM.
	Code *bytecode.Program
}

// NewFilter parses, checks, and compiles a MiniC filter source as
// written (unoptimized).
func NewFilter(name, src string) (*Filter, error) {
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		return nil, fmt.Errorf("streaming: filter %q: %w", name, err)
	}
	code, err := bytecode.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("streaming: filter %q: %w", name, err)
	}
	return &Filter{Name: name, Prog: prog, Code: code}, nil
}

// Run executes the filter over input, returning its stdout and cost.
func (f *Filter) Run(input []byte) (string, *interp.CountingSink, error) {
	sink := &interp.CountingSink{}
	var out bytes.Buffer
	m := interp.New(f.Prog, interp.Options{
		Stdin:  bytes.NewReader(input),
		Stdout: &out,
		Cost:   sink,
	})
	code, err := bytecode.NewVM(m, f.Code).Run()
	if err != nil {
		return "", nil, fmt.Errorf("streaming: filter %q: %w", f.Name, err)
	}
	if code != 0 {
		return "", nil, fmt.Errorf("streaming: filter %q exited with status %d", f.Name, code)
	}
	return out.String(), sink, nil
}

// ParseKVLines converts filter stdout into typed pairs.
func ParseKVLines(out string, schema kv.Schema) ([]kv.Pair, error) {
	var pairs []kv.Pair
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		p, err := kv.ParsePair(schema.KeyKind, schema.ValKind, line)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// RenderKVLines converts typed pairs back to streaming text (the input of
// combine and reduce filters).
func RenderKVLines(pairs []kv.Pair) []byte {
	var b []byte
	for _, p := range pairs {
		b = p.AppendText(b)
		b = append(b, '\n')
	}
	return b
}

// MapTaskTimes is the CPU task's stage breakdown (mirroring the GPU task's
// stages where they exist).
type MapTaskTimes struct {
	InputRead   float64
	Map         float64
	Sort        float64
	Combine     float64
	OutputWrite float64
}

// Total sums the stages.
func (t MapTaskTimes) Total() float64 {
	return t.InputRead + t.Map + t.Sort + t.Combine + t.OutputWrite
}

// MapTaskResult is a completed CPU map task.
type MapTaskResult struct {
	// Partitions holds combined pairs per reducer (nil for map-only jobs).
	Partitions [][]kv.Pair
	// MapOutput holds a map-only job's raw output pairs.
	MapOutput   []kv.Pair
	Times       MapTaskTimes
	MapPairs    int
	OutputBytes int64
}

// MapTaskConfig parameterizes a CPU map task.
type MapTaskConfig struct {
	Schema        kv.Schema
	NumReducers   int
	CPU           CPUModel
	InputReadTime float64
	// DiskWriteGBs / HDFSWriteGBs mirror the GPU driver's write model.
	DiskWriteGBs float64
	HDFSWriteGBs float64
	// Prof, when non-nil, receives this task's wall-clock phase times.
	Prof *perf.Profiler
}

func (c *MapTaskConfig) fillDefaults() {
	if c.DiskWriteGBs == 0 {
		c.DiskWriteGBs = 0.25
	}
	if c.HDFSWriteGBs == 0 {
		c.HDFSWriteGBs = 0.12
	}
	if c.CPU.GHz == 0 {
		c.CPU = XeonE52680()
	}
}

// RunMapTask executes one Hadoop Streaming map task on a single CPU core:
// run the map filter over the split, partition and sort its output, run
// the combine filter per partition, and account the output write.
func RunMapTask(mapF, combineF *Filter, input []byte, cfg MapTaskConfig) (*MapTaskResult, error) {
	cfg.fillDefaults()
	res := &MapTaskResult{}
	res.Times.InputRead = cfg.InputReadTime

	endMap := cfg.Prof.Phase(perf.PhaseCPUMap)
	out, sink, err := mapF.Run(input)
	if err != nil {
		endMap()
		return nil, err
	}
	res.Times.Map = cfg.CPU.Time(sink)
	pairs, err := ParseKVLines(out, cfg.Schema)
	endMap()
	if err != nil {
		return nil, fmt.Errorf("streaming: map output: %w", err)
	}
	res.MapPairs = len(pairs)

	if cfg.NumReducers <= 0 {
		res.MapOutput = pairs
		res.OutputBytes = kv.TextBytes(pairs)
		res.Times.OutputWrite = float64(res.OutputBytes) / (cfg.HDFSWriteGBs * 1e9)
		return res, nil
	}

	// Partition, then sort each partition by key.
	endSort := cfg.Prof.Phase(perf.PhaseCPUSort)
	parts := make([][]kv.Pair, cfg.NumReducers)
	for _, p := range pairs {
		i := kv.Partition(p.Key, cfg.NumReducers)
		parts[i] = append(parts[i], p)
	}
	for i := range parts {
		kv.SortPairs(parts[i])
		res.Times.Sort += cfg.CPU.SortTime(len(parts[i]), cfg.Schema.SlotKeyLen())
	}
	endSort()

	if combineF != nil {
		endCombine := cfg.Prof.Phase(perf.PhaseCPUCombine)
		combined := make([][]kv.Pair, cfg.NumReducers)
		for i, part := range parts {
			if len(part) == 0 {
				continue
			}
			cout, csink, err := combineF.Run(RenderKVLines(part))
			if err != nil {
				endCombine()
				return nil, err
			}
			res.Times.Combine += cfg.CPU.Time(csink)
			cpairs, err := ParseKVLines(cout, cfg.Schema)
			if err != nil {
				endCombine()
				return nil, fmt.Errorf("streaming: combine output: %w", err)
			}
			combined[i] = cpairs
		}
		endCombine()
		res.Partitions = combined
	} else {
		res.Partitions = parts
	}

	for _, part := range res.Partitions {
		res.OutputBytes += int64(len(part)) * int64(cfg.Schema.SlotKeyLen()+cfg.Schema.SlotValLen()+12)
	}
	res.Times.OutputWrite = float64(res.OutputBytes) / (cfg.DiskWriteGBs * 1e9)
	return res, nil
}

// RunReduce merges sorted partition streams from all map tasks and runs
// the reduce filter over them, returning the final output pairs and the
// filter's cost. A non-nil prof receives the shuffle-merge and reduce
// phase times.
func RunReduce(reduceF *Filter, schema kv.Schema, inputs [][]kv.Pair, cpu CPUModel, prof *perf.Profiler) ([]kv.Pair, float64, error) {
	endMerge := prof.Phase(perf.PhaseShuffleMerge)
	merged := MergeSorted(inputs)
	endMerge()
	if reduceF == nil {
		return merged, cpu.SortTime(len(merged), schema.SlotKeyLen()), nil
	}
	endReduce := prof.Phase(perf.PhaseReduce)
	out, sink, err := reduceF.Run(RenderKVLines(merged))
	endReduce()
	if err != nil {
		return nil, 0, err
	}
	pairs, err := ParseKVLines(out, schema)
	if err != nil {
		return nil, 0, fmt.Errorf("streaming: reduce output: %w", err)
	}
	mergeTime := cpu.SortTime(len(merged), schema.SlotKeyLen())
	return pairs, mergeTime + cpu.Time(sink), nil
}

// MergeSorted performs the reduce-side k-way merge of per-map sorted runs.
// Runs that are not fully sorted (GPU combiners emit sorted chunks per
// warp) are sorted first, as Hadoop's merge would via its spill mechanism.
func MergeSorted(inputs [][]kv.Pair) []kv.Pair {
	var all []kv.Pair
	for _, in := range inputs {
		all = append(all, in...)
	}
	kv.SortPairs(all)
	return all
}
