package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/interp"
)

func TestDeviceConfigsValid(t *testing.T) {
	for _, cfg := range []DeviceConfig{TeslaK40(), TeslaM2090()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	bad := TeslaK40()
	bad.SMs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SMs accepted")
	}
	bad2 := TeslaK40()
	bad2.PCIeGBs = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero PCIe bandwidth accepted")
	}
}

func TestCyclesToSeconds(t *testing.T) {
	cfg := TeslaK40()
	s := cfg.CyclesToSeconds(0.745e9)
	if math.Abs(s-1.0) > 1e-9 {
		t.Fatalf("1 second of cycles = %v", s)
	}
}

func TestTransferTimeScalesWithBytes(t *testing.T) {
	cfg := TeslaK40()
	t1 := cfg.TransferTime(6_000_000_000) // 6 GB at 6 GB/s ~ 1s
	if math.Abs(t1-1.0) > 0.01 {
		t.Fatalf("6GB transfer = %v s", t1)
	}
	if cfg.TransferTime(1000) >= cfg.TransferTime(1_000_000) {
		t.Error("transfer time not monotone in bytes")
	}
}

func TestAccessCostOrdering(t *testing.T) {
	cfg := TeslaK40()
	// register < constant <= shared < texture < global
	if !(cfg.AccessCost(interp.SpaceReg) < cfg.AccessCost(interp.SpaceConstant)) {
		t.Error("register should be cheaper than constant")
	}
	if !(cfg.AccessCost(interp.SpaceShared) < cfg.AccessCost(interp.SpaceTexture)) {
		t.Error("shared should be cheaper than texture")
	}
	if !(cfg.AccessCost(interp.SpaceTexture) < cfg.AccessCost(interp.SpaceGlobal)) {
		t.Error("texture should be cheaper than global (that is the Fig 7a effect)")
	}
}

func TestThreadCostAccumulates(t *testing.T) {
	cfg := TeslaK40()
	tc := NewThreadCost(&cfg)
	tc.Op(10)
	if tc.Cycles != 10*cfg.OpCost {
		t.Fatalf("cycles = %v", tc.Cycles)
	}
	before := tc.Cycles
	tc.Load(interp.SpaceGlobal, 4)
	if tc.Cycles != before+cfg.GlobalCost {
		t.Fatalf("global load cost wrong: %v", tc.Cycles-before)
	}
	before = tc.Cycles
	tc.Store(interp.SpaceShared, 4)
	if tc.Cycles != before+cfg.SharedCost {
		t.Fatalf("shared store cost wrong")
	}
}

func TestCoalescedCheaperThanStrided(t *testing.T) {
	cfg := TeslaK40()
	a := NewThreadCost(&cfg)
	b := NewThreadCost(&cfg)
	a.CoalescedAccess(64, 4)
	b.StridedAccess(64)
	if a.Cycles >= b.Cycles {
		t.Fatalf("coalesced (%v) not cheaper than strided (%v)", a.Cycles, b.Cycles)
	}
	// char4 vectorization: 64 bytes = 16 transactions.
	if a.Mem != 16 {
		t.Fatalf("vector transactions = %d, want 16", a.Mem)
	}
}

func TestAtomicCosts(t *testing.T) {
	cfg := TeslaK40()
	tc := NewThreadCost(&cfg)
	tc.Atomic(interp.SpaceShared)
	sharedCost := tc.Cycles
	tc2 := NewThreadCost(&cfg)
	tc2.Atomic(interp.SpaceGlobal)
	if sharedCost >= tc2.Cycles {
		t.Fatal("shared atomics must be cheaper than global atomics (record-stealing design premise)")
	}
}

func TestAggregateBlocksSingleBlock(t *testing.T) {
	d, err := NewDevice(TeslaK40())
	if err != nil {
		t.Fatal(err)
	}
	tm := d.AggregateBlocksProfile([]float64{745e3}).Seconds // 1ms of cycles
	if tm < 0.001 || tm > 0.0011 {
		t.Fatalf("single block time = %v", tm)
	}
}

func TestAggregateBlocksParallelism(t *testing.T) {
	d, _ := NewDevice(TeslaK40())
	// 15 identical blocks on 15 SMs should take ~1 block's time.
	equal := make([]float64, 15)
	for i := range equal {
		equal[i] = 1e6
	}
	t15 := d.AggregateBlocksProfile(equal).Seconds
	// 30 blocks should take ~2x.
	double := make([]float64, 30)
	for i := range double {
		double[i] = 1e6
	}
	t30 := d.AggregateBlocksProfile(double).Seconds
	if ratio := t30 / t15; ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("30/15 block ratio = %v, want ~2", ratio)
	}
}

func TestAggregateBlocksImbalance(t *testing.T) {
	d, _ := NewDevice(TeslaK40())
	// One huge block dominates regardless of how many tiny ones exist.
	blocks := []float64{1e9}
	for i := 0; i < 100; i++ {
		blocks = append(blocks, 1e3)
	}
	tm := d.AggregateBlocksProfile(blocks).Seconds
	want := d.Config.CyclesToSeconds(1e9)
	if tm < want {
		t.Fatalf("time %v less than dominant block %v", tm, want)
	}
	if tm > want*1.05 {
		t.Fatalf("time %v should be dominated by the big block (%v)", tm, want)
	}
}

func TestAggregateBlocksEmptyAndMonotone(t *testing.T) {
	d, _ := NewDevice(TeslaK40())
	if d.AggregateBlocksProfile(nil).Seconds <= 0 {
		t.Error("empty launch should still cost launch overhead")
	}
	if err := quick.Check(func(seed uint8) bool {
		n := int(seed%20) + 1
		blocks := make([]float64, n)
		for i := range blocks {
			blocks[i] = float64((i*7919+int(seed))%1000) * 1e3
		}
		t1 := d.AggregateBlocksProfile(blocks).Seconds
		t2 := d.AggregateBlocksProfile(append(blocks, 5e6)).Seconds
		return t2 >= t1 // adding work never speeds the kernel up
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortTimeGrowsWithN(t *testing.T) {
	d, _ := NewDevice(TeslaK40())
	small := d.SortTime(1000, 16, false)
	big := d.SortTime(100000, 16, false)
	if big <= small {
		t.Fatal("sort time not increasing in n")
	}
	if d.SortTime(0, 16, false) <= 0 || d.SortTime(1, 16, false) <= 0 {
		t.Fatal("degenerate sorts must still cost launch overhead")
	}
}

func TestSortAggregationEffect(t *testing.T) {
	d, _ := NewDevice(TeslaK40())
	// The Fig 7e effect: sorting the compacted KV count must be much
	// cheaper than sorting the over-allocated slot count.
	compacted := d.SortTime(10_000, 30, false)
	whitespace := d.SortTime(100_000, 30, false)
	if ratio := whitespace / compacted; ratio < 5 {
		t.Fatalf("aggregation speedup = %v, want >= 5x for 10x slot inflation", ratio)
	}
}

func TestSortVectorizationCheaper(t *testing.T) {
	d, _ := NewDevice(TeslaK40())
	if d.SortTime(50_000, 30, true) >= d.SortTime(50_000, 30, false) {
		t.Fatal("vectorized sort not cheaper")
	}
}

func TestScanTimeReasonable(t *testing.T) {
	d, _ := NewDevice(TeslaK40())
	// Aggregation scan over 1M counters must be well under a millisecond of
	// pure bandwidth time (paper: "negligible in all benchmarks").
	if tm := d.ScanTime(1_000_000, 4); tm > 0.001 {
		t.Fatalf("scan of 1M counters = %v s, want < 1ms", tm)
	}
	if d.ScanTime(0, 4) <= 0 {
		t.Fatal("empty scan should cost launch overhead")
	}
}

func TestStreamKernelTime(t *testing.T) {
	d, _ := NewDevice(TeslaK40())
	one := d.StreamKernelTime(288_000_000_000, 1) // 288GB at 288GB/s ~ 1s
	if math.Abs(one-1.0) > 0.01 {
		t.Fatalf("stream time = %v", one)
	}
}
