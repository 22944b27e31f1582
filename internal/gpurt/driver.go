package gpurt

import (
	"fmt"
	"io"

	"repro/internal/compiler"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/seqfile"
)

// StageTimes is the per-stage execution-time breakdown of one GPU task,
// matching the stages of the paper's Figure 6.
type StageTimes struct {
	InputRead   float64 // HDFS fileSplit fetch (supplied by the caller)
	InputCopy   float64 // host -> device PCIe copy
	RecordCount float64 // record locator kernel
	Map         float64 // map kernel
	Aggregate   float64 // KV-pair compaction scan
	Sort        float64 // per-partition indirection merge sort
	Combine     float64 // per-partition combine kernels
	OutputWrite float64 // format + checksum + local disk / HDFS write
}

// Total sums all stages.
func (s StageTimes) Total() float64 {
	return s.InputRead + s.InputCopy + s.RecordCount + s.Map + s.Aggregate +
		s.Sort + s.Combine + s.OutputWrite
}

// Stages returns labeled stage durations in Figure-6 order.
func (s StageTimes) Stages() []struct {
	Name string
	Time float64
} {
	return []struct {
		Name string
		Time float64
	}{
		{"input read", s.InputRead},
		{"input copy", s.InputCopy},
		{"record count", s.RecordCount},
		{"map", s.Map},
		{"aggregate", s.Aggregate},
		{"sort", s.Sort},
		{"combine", s.Combine},
		{"output write", s.OutputWrite},
	}
}

// TaskConfig parameterizes one GPU map+combine task.
type TaskConfig struct {
	// NumReducers is the job's reduce-task count; 0 means a map-only job
	// whose output goes straight to HDFS.
	NumReducers int
	// Opts selects the optimization set.
	Opts Options
	// InputReadTime is the HDFS read time computed by the caller's storage
	// model (locality-dependent); it lands in the breakdown unchanged.
	InputReadTime float64
	// DiskWriteGBs is the local-disk (or memory-fs) write bandwidth for
	// intermediate output; HDFSWriteGBs covers map-only final output
	// (replication included). Zero selects defaults.
	DiskWriteGBs float64
	HDFSWriteGBs float64
	// Prof, when non-nil, receives the task's wall-clock phase times.
	Prof *perf.Profiler
}

const (
	// assumedKVPerRecord stands in for "allocate all free GPU memory" when
	// the kvpairs clause is absent: the store is over-provisioned at this
	// many slots per record.
	assumedKVPerRecord = 32
	// checksumGBs is the effective throughput of Hadoop-format framing +
	// CRC computation on the host CPU.
	checksumGBs = 0.8
)

func (c *TaskConfig) fillDefaults() {
	if c.DiskWriteGBs == 0 {
		c.DiskWriteGBs = 0.25
	}
	if c.HDFSWriteGBs == 0 {
		c.HDFSWriteGBs = 0.12 // replicated pipeline write
	}
}

// TaskResult is a completed GPU task: its functional output and timing.
type TaskResult struct {
	// Partitions holds combined (or, without a combiner, sorted map) KV
	// pairs per reducer partition. Nil for map-only jobs.
	Partitions [][]kv.Pair
	// MapOutput holds the raw pairs of a map-only job, in slot order.
	MapOutput []kv.Pair
	Times     StageTimes
	Records   int
	KVPairs   int
	// Whitespace is the unused slot count the aggregation step removed.
	Whitespace int
	Steals     int64
	// OutputBytes is the serialized output size.
	OutputBytes int64
	// Profiles holds one KernelProfile per kernel launch group
	// (record-count, map, aggregate, sort, combine), in launch order.
	Profiles []obs.KernelProfile
}

// Total returns the end-to-end task time.
func (r *TaskResult) Total() float64 { return r.Times.Total() }

// RunTask executes one HeteroDoop GPU task over an input fileSplit,
// following the host flow of the paper's Figure 1:
//
//	copy input -> count records -> allocate KV store -> map kernel ->
//	aggregate -> (sort -> combine) per partition -> write output.
//
// mapC is required; combineC may be nil (jobs without a combiner sort the
// map output and ship it as-is; map-only jobs skip sort entirely).
func RunTask(dev *gpu.Device, mapC, combineC *compiler.Compiled, input []byte, cfg TaskConfig) (*TaskResult, error) {
	cfg.fillDefaults()
	if mapC == nil || mapC.Kernel == nil || mapC.Kernel.Kind != compiler.RegionMapper {
		return nil, fmt.Errorf("gpurt: RunTask needs a compiled mapper")
	}
	if combineC != nil && combineC.Kernel.Kind != compiler.RegionCombiner {
		return nil, fmt.Errorf("gpurt: combineC is not a combiner")
	}
	res := &TaskResult{}
	res.Times.InputRead = cfg.InputReadTime

	// 1. Copy the fileSplit into device memory.
	res.Times.InputCopy = dev.Config.TransferTime(int64(len(input)))

	// 2. Record-locator kernel: one streaming pass over the input.
	records := LocateRecords(input)
	res.Records = len(records)
	res.Times.RecordCount = dev.StreamKernelTime(int64(len(input)), 1)
	res.Profiles = append(res.Profiles, obs.KernelProfile{Kernel: "record-count", Seconds: res.Times.RecordCount})

	// 3. Allocate the global KV store.
	spec := mapC.Kernel
	numThreads := spec.Blocks * spec.Threads
	perRecord := spec.KVPairs
	if perRecord <= 0 {
		perRecord = assumedKVPerRecord
	}
	slotsPerThread := storeSlotsPerThread(len(records), perRecord, numThreads, spec.KVPairs > 0)
	numReducers := cfg.NumReducers
	store, err := NewKVStore(mapC.Schema, numThreads, slotsPerThread, numReducers)
	if err != nil {
		return nil, &AbortError{Kernel: "map", Cause: err}
	}
	if store.StoreBytes()+int64(len(input)) > dev.Config.GlobalMemBytes {
		return nil, fmt.Errorf("gpurt: KV store (%d MB) + input exceed device memory", store.StoreBytes()>>20)
	}

	// 4. Run the host program to its launch point, then the map kernel.
	endHost := cfg.Prof.Phase(perf.PhaseGPUHost)
	host, err := captureHost(mapC, io.Discard)
	endHost()
	if err != nil {
		return nil, err
	}
	endMap := cfg.Prof.Phase(perf.PhaseGPUMap)
	mres, err := ExecMapKernel(dev, mapC, host, input, records, store, cfg.Opts)
	endMap()
	if err != nil {
		return nil, &AbortError{Kernel: "map", Cause: err}
	}
	res.Times.Map = mres.Time
	res.Steals = mres.Steals
	res.KVPairs = store.TotalCount()
	res.Whitespace = store.Whitespace()
	res.Profiles = append(res.Profiles, obs.KernelProfile{
		Kernel:        "map",
		Seconds:       mres.Time,
		Blocks:        len(mres.BlockCycles),
		Occupancy:     mres.Occupancy,
		StragglerSkew: mres.StragglerSkew,
		Steals:        mres.Steals,
		Cycles:        spaceCycles(mres.Breakdown),
	})

	// Map-only job: write output straight to HDFS.
	if cfg.NumReducers <= 0 {
		endOut := cfg.Prof.Phase(perf.PhaseGPUOutput)
		for _, slots := range store.Aggregate() {
			for _, s := range slots {
				res.MapOutput = append(res.MapOutput, store.SlotPair(int(s)))
			}
		}
		res.OutputBytes = kv.TextBytes(res.MapOutput)
		endOut()
		res.Times.OutputWrite = writeTime(res.OutputBytes, cfg.HDFSWriteGBs)
		return res, nil
	}

	// 5. Aggregate: compact whitespace out of the indirection array.
	endSortPhase := cfg.Prof.Phase(perf.PhaseGPUSort)
	partitions := store.Aggregate()
	sortSizes := make([]int, len(partitions))
	for p := range partitions {
		sortSizes[p] = len(partitions[p])
	}
	if cfg.Opts.Aggregation {
		res.Times.Aggregate = dev.ScanTime(numThreads, 4) +
			dev.StreamKernelTime(int64(store.TotalCount())*4, 2)
		res.Profiles = append(res.Profiles, obs.KernelProfile{Kernel: "aggregate", Seconds: res.Times.Aggregate})
	} else {
		// Without compaction the sort must process each partition's share
		// of the whitespace-laden store region. At our scaled split sizes
		// the thread count can exceed the record count, which would
		// inflate whitespace beyond anything the real system sees; the
		// modeled inflation is capped at 6x the live pairs (the paper's
		// observed aggregation gains top out at 7.6x, Fig. 7e).
		ws := store.Whitespace()
		if cap := 6 * store.TotalCount(); ws > cap {
			ws = cap
		}
		share := ws / len(partitions)
		for p := range sortSizes {
			sortSizes[p] += share
		}
	}

	// 6. Sort each partition (indirection-based merge sort) and
	// 7. run the combine kernel on it.
	keyBytes := mapC.Schema.SlotKeyLen()
	for p, slots := range partitions {
		store.SortPartition(slots)
		res.Times.Sort += dev.SortTime(sortSizes[p], keyBytes, cfg.Opts.VectorMap)
	}
	endSortPhase()
	res.Profiles = append(res.Profiles, obs.KernelProfile{Kernel: "sort", Seconds: res.Times.Sort})
	if combineC != nil {
		endCHost := cfg.Prof.Phase(perf.PhaseGPUHost)
		chost, err := captureHost(combineC, io.Discard)
		endCHost()
		if err != nil {
			return nil, err
		}
		endCombine := cfg.Prof.Phase(perf.PhaseGPUCombine)
		cres, err := ExecCombineKernels(dev, combineC, chost, store, partitions, cfg.Opts)
		endCombine()
		if err != nil {
			return nil, &AbortError{Kernel: "combine", Cause: err}
		}
		res.Partitions = cres.Partitions
		res.Times.Combine = cres.Time
		res.Profiles = append(res.Profiles, obs.KernelProfile{
			Kernel:        "combine",
			Seconds:       cres.Time,
			Blocks:        cres.Blocks,
			Occupancy:     cres.Occupancy,
			StragglerSkew: cres.StragglerSkew,
			Cycles:        spaceCycles(cres.Breakdown),
		})
	} else {
		res.Partitions = make([][]kv.Pair, len(partitions))
		for p, slots := range partitions {
			for _, s := range slots {
				res.Partitions[p] = append(res.Partitions[p], store.SlotPair(int(s)))
			}
		}
	}

	// 8. Write the intermediate output to local disk in Hadoop binary
	// format (the seqfile container: length-prefixed records with CRC32
	// checksums). The serialization really runs — the byte count and
	// checksum work in the timing model are those of the actual container.
	endOut := cfg.Prof.Phase(perf.PhaseGPUOutput)
	outBytes, err := serializeOutput(res.Partitions, combineSchema(mapC, combineC))
	endOut()
	if err != nil {
		return nil, err
	}
	res.OutputBytes = outBytes
	res.Times.OutputWrite = writeTime(outBytes, cfg.DiskWriteGBs)
	return res, nil
}

// serializeOutput encodes each partition through the seqfile writer and
// returns the total container size.
func serializeOutput(partitions [][]kv.Pair, schema kv.Schema) (int64, error) {
	var total int64
	for _, part := range partitions {
		var counter countingWriter
		w, err := seqfile.NewWriter(&counter, schema)
		if err != nil {
			return 0, err
		}
		for _, p := range part {
			if err := w.Append(p); err != nil {
				return 0, err
			}
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		total += counter.n
	}
	return total, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// storeSlotsPerThread sizes each thread's KV store portion. With a kvpairs
// clause the bound is exact (records * kvpairs spread over threads, padded
// for stealing skew); without one, the paper allocates all free device
// memory — modeled as a generous per-record over-allocation.
func storeSlotsPerThread(records, perRecord, numThreads int, exact bool) int {
	if records < 1 {
		records = 1
	}
	total := records * perRecord
	per := (total + numThreads - 1) / numThreads
	if exact {
		// Stealing lets one thread process more than records/threads;
		// pad 2x plus one record's worth.
		per = 2*per + perRecord
	} else {
		per = 2 * per
	}
	if per < perRecord {
		per = perRecord
	}
	return per
}

func combineSchema(mapC, combineC *compiler.Compiled) kv.Schema {
	if combineC != nil {
		return combineC.Schema
	}
	return mapC.Schema
}

// writeTime models output writing: Hadoop-format framing + CRC on the CPU
// followed by the device->host copy-back and the disk write, which overlap
// poorly in Hadoop 1.x and are modeled additively.
func writeTime(bytes int64, diskGBs float64) float64 {
	return float64(bytes)/(checksumGBs*1e9) + float64(bytes)/(diskGBs*1e9)
}
