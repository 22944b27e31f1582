// Package gpurt is the HeteroDoop GPU runtime (paper §5): it provides the
// global KV store, the record locator and per-threadblock record stealing,
// the emitKV/getKV/storeKV intrinsics with vectorized variants, KV-pair
// aggregation via parallel prefix scan, the indirection-based merge sort,
// the warp-redundant combine execution, and the host driver implementing
// the Figure-1 flow. Kernels execute functionally through the MiniC
// interpreter while charging cycles into the gpu package's cost model.
package gpurt

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"repro/internal/kv"
)

// KVStore is the global KV store: a statically allocated region of device
// memory divided into equal per-thread portions (paper §4.1). Each slot
// holds one fixed-size serialized key and value. Slots a thread never
// fills are "whitespace" that the aggregation step removes before sorting.
type KVStore struct {
	Schema         kv.Schema
	NumThreads     int
	SlotsPerThread int
	NumReducers    int

	keys   []byte  // slot i key at [i*keyLen, (i+1)*keyLen)
	vals   []byte  // slot i value at [i*valLen, (i+1)*valLen)
	counts []int32 // KV pairs emitted per thread (devKvCount)
	parts  []int32 // partition of each used slot
}

// ErrStoreOverflow reports a thread exhausting its KV store portion, which
// fails the task (the real system would overflow device memory).
var ErrStoreOverflow = fmt.Errorf("gpurt: thread exceeded its global KV store portion")

// NewKVStore allocates a store. numReducers <= 0 is treated as a single
// logical partition (map-only jobs still use slot bookkeeping).
func NewKVStore(schema kv.Schema, numThreads, slotsPerThread, numReducers int) (*KVStore, error) {
	if numThreads <= 0 || slotsPerThread <= 0 {
		return nil, fmt.Errorf("gpurt: invalid KV store geometry %dx%d", numThreads, slotsPerThread)
	}
	if numReducers <= 0 {
		numReducers = 1
	}
	total := numThreads * slotsPerThread
	return &KVStore{
		Schema:         schema,
		NumThreads:     numThreads,
		SlotsPerThread: slotsPerThread,
		NumReducers:    numReducers,
		keys:           make([]byte, total*schema.SlotKeyLen()),
		vals:           make([]byte, total*schema.SlotValLen()),
		counts:         make([]int32, numThreads),
		parts:          make([]int32, total),
	}, nil
}

// TotalSlots returns the allocated slot count (used + whitespace).
func (s *KVStore) TotalSlots() int { return s.NumThreads * s.SlotsPerThread }

// StoreBytes returns the device memory consumed by the store.
func (s *KVStore) StoreBytes() int64 {
	return int64(s.TotalSlots()) * int64(s.Schema.SlotKeyLen()+s.Schema.SlotValLen()+4)
}

// Emit appends a KV pair to thread's portion, returning the slot index.
func (s *KVStore) Emit(thread int, key, val kv.Value) (int, error) {
	if thread < 0 || thread >= s.NumThreads {
		return 0, fmt.Errorf("gpurt: emit from invalid thread %d", thread)
	}
	n := int(s.counts[thread])
	if n >= s.SlotsPerThread {
		return 0, ErrStoreOverflow
	}
	slot := thread*s.SlotsPerThread + n
	kl, vl := s.Schema.SlotKeyLen(), s.Schema.SlotValLen()
	copy(s.keys[slot*kl:(slot+1)*kl], s.Schema.EncodeKey(key))
	copy(s.vals[slot*vl:(slot+1)*vl], s.Schema.EncodeVal(val))
	s.parts[slot] = int32(kv.Partition(key, s.NumReducers))
	s.counts[thread] = int32(n + 1)
	return slot, nil
}

// Count returns the KV pairs emitted by one thread.
func (s *KVStore) Count(thread int) int { return int(s.counts[thread]) }

// Remaining returns the free slots left in a thread's portion.
func (s *KVStore) Remaining(thread int) int {
	return s.SlotsPerThread - int(s.counts[thread])
}

// TotalCount returns the KV pairs emitted by all threads.
func (s *KVStore) TotalCount() int {
	total := 0
	for _, c := range s.counts {
		total += int(c)
	}
	return total
}

// Whitespace returns the number of allocated but unused slots.
func (s *KVStore) Whitespace() int { return s.TotalSlots() - s.TotalCount() }

// SlotKeyBytes returns the serialized key of a slot (aliasing the store).
func (s *KVStore) SlotKeyBytes(slot int) []byte {
	kl := s.Schema.SlotKeyLen()
	return s.keys[slot*kl : (slot+1)*kl]
}

// SlotPair decodes the KV pair at a slot.
func (s *KVStore) SlotPair(slot int) kv.Pair {
	kl, vl := s.Schema.SlotKeyLen(), s.Schema.SlotValLen()
	return kv.Pair{
		Key: s.Schema.DecodeKey(s.keys[slot*kl : (slot+1)*kl]),
		Val: s.Schema.DecodeVal(s.vals[slot*vl : (slot+1)*vl]),
	}
}

// Aggregate performs the KV-pair aggregation of paper §5.3: using the
// per-thread emission counts (devKvCount) and a parallel prefix scan, it
// produces, per partition, the compacted indirection array of used slots
// (KV pairs are never moved, only the index array is rewritten). The scan
// itself is simulated analytically by the driver; this is the functional
// result. Slot order is (thread, emission order), which both the CPU and
// GPU paths preserve.
func (s *KVStore) Aggregate() [][]int32 {
	out := make([][]int32, s.NumReducers)
	for t := 0; t < s.NumThreads; t++ {
		base := t * s.SlotsPerThread
		for i := 0; i < int(s.counts[t]); i++ {
			slot := base + i
			p := s.parts[slot]
			out[p] = append(out[p], int32(slot))
		}
	}
	return out
}

// SortPartition orders a partition's indirection array by serialized key
// (bytewise, which the order-preserving encoding makes equivalent to the
// CPU's typed comparison), then by slot, so equal keys keep their
// emission order. Only the index array is permuted; the KV data never
// moves, as in the paper's indirection-based merge sort. The order is
// total, so it does not depend on the sorting algorithm.
func (s *KVStore) SortPartition(slots []int32) {
	slices.SortFunc(slots, func(a, b int32) int {
		if c := bytes.Compare(s.SlotKeyBytes(int(a)), s.SlotKeyBytes(int(b))); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// Record is one input record located by the record-counting kernel.
type Record struct {
	Start int32
	Len   int32 // includes the trailing newline when present
}

// LocateRecords implements the record locator kernel (paper §5.2): it
// scans the input for newline-delimited records and returns their start
// offsets and lengths. The driver charges its cost as one streaming pass
// over the input.
func LocateRecords(input []byte) []Record {
	var recs []Record
	start := 0
	for i := 0; i < len(input); i++ {
		if input[i] == '\n' {
			recs = append(recs, Record{Start: int32(start), Len: int32(i - start + 1)})
			start = i + 1
		}
	}
	if start < len(input) {
		recs = append(recs, Record{Start: int32(start), Len: int32(len(input) - start)})
	}
	return recs
}
