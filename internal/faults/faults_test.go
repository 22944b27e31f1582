package faults

import (
	"math"
	"testing"
)

func TestDrawKeyedByAttemptNotOrder(t *testing.T) {
	// The draw for a given (task, attempt, device) is a pure function of
	// the key: querying in any order, any number of times, returns the
	// same variate.
	a := Draw(7, 3, 1, true)
	for i := 0; i < 100; i++ {
		Draw(7, uint64OrderNoise(i), i%5, i%2 == 0) // interleave unrelated draws
	}
	if b := Draw(7, 3, 1, true); a != b {
		t.Fatalf("draw changed with call order: %v vs %v", a, b)
	}
	if Draw(7, 3, 1, true) == Draw(7, 3, 1, false) {
		t.Fatal("CPU and GPU draws collide")
	}
	if Draw(7, 3, 1, true) == Draw(7, 3, 2, true) {
		t.Fatal("attempt index ignored")
	}
	if Draw(7, 3, 1, true) == Draw(8, 3, 1, true) {
		t.Fatal("seed ignored")
	}
}

func uint64OrderNoise(i int) int { return (i * 37) % 11 }

func TestDrawIsUniformish(t *testing.T) {
	const n = 20000
	var sum float64
	hits := 0
	for task := 0; task < n; task++ {
		u := Draw(42, task, 0, true)
		if u < 0 || u >= 1 {
			t.Fatalf("draw out of range: %v", u)
		}
		sum += u
		if u < 0.3 {
			hits++
		}
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("P(u<0.3) = %v, want ~0.3", frac)
	}
}

func TestAttemptFailsTargets(t *testing.T) {
	// Rates are zero so only the targeted faults can fire.
	p := &Plan{
		Seed: 1,
		Faults: []Fault{
			{Kind: TaskFail, Task: 9, Attempt: -1, Device: AnyDevice},
			{Kind: TaskFail, Task: 4, Attempt: 1, Device: CPUDevice},
			{Kind: TaskFail, Task: 5, Attempt: 0, Device: GPUDevice},
		},
	}
	if !p.AttemptFails(9, 0, false) || !p.AttemptFails(9, 3, true) {
		t.Fatal("permanent task fault did not hit every attempt")
	}
	if !p.AttemptFails(4, 1, false) {
		t.Fatal("targeted CPU attempt fault missed")
	}
	if p.AttemptFails(4, 1, true) {
		t.Fatal("CPU-only fault hit the GPU path")
	}
	if p.AttemptFails(4, 0, false) {
		t.Fatal("attempt-targeted fault hit the wrong attempt")
	}
	if !p.AttemptFails(5, 0, true) || p.AttemptFails(5, 0, false) {
		t.Fatal("GPU-only fault mismatch")
	}
	for task := 0; task < 200; task++ {
		if task != 9 && p.AttemptFails(task, 3, false) {
			t.Fatalf("untargeted attempt failed with zero rates (task %d)", task)
		}
	}
	var nilPlan *Plan
	if nilPlan.AttemptFails(0, 0, true) {
		t.Fatal("nil plan injected a failure")
	}
	if !nilPlan.Empty() || !(&Plan{}).Empty() {
		t.Fatal("empty plans not recognized")
	}
}

func TestAttemptFailsRates(t *testing.T) {
	p := &Plan{Seed: 1, GPUFailureRate: 0.5}
	fails := 0
	for task := 0; task < 1000; task++ {
		if p.AttemptFails(task, 0, false) {
			t.Fatalf("CPU attempt failed with zero CPU rate (task %d)", task)
		}
		if p.AttemptFails(task, 0, true) {
			fails++
		}
	}
	if fails < 400 || fails > 600 {
		t.Fatalf("GPU failures = %d/1000 at rate 0.5", fails)
	}
}

func TestParseFullSpec(t *testing.T) {
	p, err := Parse("seed=7; gpurate=0.2; cpurate=0.01;" +
		"crash(node=1,at=5,restart=10); crash(node=2,at=8);" +
		"hbloss(node=0,at=2,for=8); retire(node=2,at=1);" +
		"slow(node=3,at=0,for=100,factor=4);" +
		"taskfail(task=7,attempt=0,dev=gpu); taskfail(task=3)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.GPUFailureRate != 0.2 || p.CPUFailureRate != 0.01 {
		t.Fatalf("scalars wrong: %+v", p)
	}
	if len(p.Faults) != 7 {
		t.Fatalf("parsed %d faults, want 7", len(p.Faults))
	}
	want := []Kind{NodeCrash, NodeCrash, HeartbeatLoss, GPURetire, Slowdown, TaskFail, TaskFail}
	for i, k := range want {
		if p.Faults[i].Kind != k {
			t.Fatalf("fault %d kind = %v, want %v", i, p.Faults[i].Kind, k)
		}
	}
	if p.Faults[0].RestartAfter != 10 || p.Faults[1].RestartAfter != 0 {
		t.Fatal("restart delays wrong")
	}
	if f := p.Faults[4]; f.Factor != 4 || f.Duration != 100 {
		t.Fatalf("slowdown parsed wrong: %+v", f)
	}
	if f := p.Faults[5]; f.Task != 7 || f.Attempt != 0 || f.Device != GPUDevice {
		t.Fatalf("taskfail parsed wrong: %+v", f)
	}
	if f := p.Faults[6]; f.Task != 3 || f.Attempt != -1 || f.Device != AnyDevice {
		t.Fatalf("bare taskfail parsed wrong: %+v", f)
	}
	if len(p.Scheduled()) != 5 {
		t.Fatalf("Scheduled() = %d faults, want 5 (taskfail excluded)", len(p.Scheduled()))
	}
	if err := p.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate(node=1)",
		"gpurate=1.5",
		"gpurate=x",
		"crash(at=1)",          // missing node
		"taskfail(attempt=2)",  // missing task
		"crash(node=1,when=3)", // unknown arg
		"slow node=1",
		"seed=abc",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	cases := []*Plan{
		{Faults: []Fault{{Kind: NodeCrash, Node: 4, At: 1}}},
		{Faults: []Fault{{Kind: NodeCrash, Node: -1, At: 1}}},
		{Faults: []Fault{{Kind: NodeCrash, Node: 0, At: -1}}},
		{Faults: []Fault{{Kind: HeartbeatLoss, Node: 0, At: 1}}}, // no duration
		{Faults: []Fault{{Kind: Slowdown, Node: 0, At: 1}}},      // no factor
		{Faults: []Fault{{Kind: TaskFail, Task: -1}}},            // no task
		{Faults: []Fault{{Kind: NodeCrash, Node: 0, RestartAfter: -2}}},
		{GPUFailureRate: 1.0},
		{CPUFailureRate: -0.1},
	}
	for i, p := range cases {
		if err := p.Validate(4); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(4); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &Plan{Seed: 3, Faults: []Fault{{Kind: NodeCrash, Node: 1, At: 2}}}
	q := p.Clone()
	q.Faults[0].Node = 9
	q.Seed = 99
	if p.Faults[0].Node != 1 || p.Seed != 3 {
		t.Fatal("Clone aliases the original")
	}
	var nilPlan *Plan
	if nilPlan.Clone() != nil {
		t.Fatal("nil clone not nil")
	}
}

func TestKindAndDeviceStrings(t *testing.T) {
	if NodeCrash.String() != "node-crash" || TaskFail.String() != "task-fail" {
		t.Fatal("kind names wrong")
	}
	if GPUDevice.String() != "gpu" || AnyDevice.String() != "any" {
		t.Fatal("device names wrong")
	}
	if Kind(99).String() == "" || Device(99).String() == "" {
		t.Fatal("unknown values must still print")
	}
}
