package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3, Func(func() { order = append(order, 3) }))
	e.At(1, Func(func() { order = append(order, 1) }))
	e.At(2, Func(func() { order = append(order, 2) }))
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time = %v, want 3", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, Func(func() { order = append(order, i) }))
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestEngineAfterAccumulates(t *testing.T) {
	e := NewEngine()
	var last Time
	var step func()
	n := 0
	step = func() {
		last = e.Now()
		n++
		if n < 5 {
			e.After(2, Func(step))
		}
	}
	e.After(2, Func(step))
	e.Run()
	if last != 10 {
		t.Fatalf("last fire at %v, want 10", last)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, Func(func() { fired = true }))
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

func TestEngineCancelAfterFiring(t *testing.T) {
	// Cancelling an event that already fired (popped from the queue) must be
	// a no-op: it must not panic, corrupt the queue, or affect later events.
	e := NewEngine()
	var got []int
	var first Event
	first = e.At(1, Func(func() {
		got = append(got, 1)
		first.Cancel() // self-cancel while firing
	}))
	e.At(2, Func(func() {
		got = append(got, 2)
		first.Cancel() // cancel an event long since fired
	}))
	e.At(3, Func(func() { got = append(got, 3) }))
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", e.Fired())
	}
	first.Cancel() // and once more after the run completes
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(1, Func(func() { got = append(got, 1); e.Halt() }))
	e.At(2, Func(func() { got = append(got, 2) }))
	e.Run()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	// A second Run resumes from the queue.
	e.Run()
	if len(got) != 2 {
		t.Fatalf("resume failed, got %v", got)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, Func(func() {}))
	}))
	e.Run()
}

func TestEngineEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(10)
	var loop func()
	loop = func() { e.After(1, Func(loop)) }
	e.After(1, Func(loop))
	defer func() {
		if recover() == nil {
			t.Fatal("event limit did not trip")
		}
	}()
	e.Run()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(123)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(42)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGZipfSkew(t *testing.T) {
	r := NewRNG(99)
	const n = 100000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		counts[r.Zipf(100, 1.1)]++
	}
	// Rank 0 must dominate the tail decisively.
	if counts[0] < 5*counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	for i, c := range counts {
		if c == 0 && i < 10 {
			t.Fatalf("head rank %d never drawn", i)
		}
	}
}

func TestRNGZipfBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 200; i++ {
			v := r.Zipf(50, 1.2)
			if v < 0 || v >= 50 {
				return false
			}
		}
		return r.Zipf(1, 1.2) == 0 && r.Zipf(0, 1.2) == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	q := append([]int(nil), p...)
	sort.Ints(q)
	for i, v := range q {
		if v != i {
			t.Fatalf("Perm output not a permutation at %d: %v", i, v)
		}
	}
}

func TestEngineManyEventsStress(t *testing.T) {
	e := NewEngine()
	r := NewRNG(11)
	var last Time
	monotone := true
	for i := 0; i < 5000; i++ {
		at := Time(r.Float64() * 1000)
		e.At(at, Func(func() {
			if e.Now() < last {
				monotone = false
			}
			last = e.Now()
		}))
	}
	e.Run()
	if !monotone {
		t.Fatal("clock went backwards during stress run")
	}
	if e.Fired() != 5000 {
		t.Fatalf("Fired = %d, want 5000", e.Fired())
	}
}

// eventScript is what the randomized test's event id does when it fires.
type eventScript struct {
	kind   int  // one of the script* constants
	d      Time // scriptChild: the child's delay
	target int  // scriptCancel: the id cancelled, modulo the ids so far
}

const (
	scriptNothing = iota
	scriptChild
	scriptSelfCancel
	scriptCancel
	scriptHalt
)

// scriptFor draws event id's script. It depends only on (seed, id), so
// the engine and the reference model act alike as long as they fire the
// same ids in the same order.
func scriptFor(seed uint64, id int) eventScript {
	r := NewRNG(seed*1_000_003 + uint64(id) + 1)
	s := eventScript{d: Time(r.Intn(8)) / 2, target: r.Intn(1 << 20)}
	switch k := r.Intn(20); {
	case k < 8:
		s.kind = scriptNothing
	case k < 13:
		s.kind = scriptChild
	case k < 15:
		s.kind = scriptSelfCancel
	case k < 18:
		s.kind = scriptCancel
	default:
		s.kind = scriptHalt
	}
	return s
}

// refQueue is the reference model: live events as ids (ids are handed out
// in scheduling order, so an id is also the event's seq) in a slice kept
// sorted by (at, id).
type refQueue struct {
	seed   uint64
	now    Time
	at     []Time // firing time by id
	queue  []int
	fired  uint64
	halted bool
	log    []int
}

func (r *refQueue) schedule(t Time) {
	id := len(r.at)
	r.at = append(r.at, t)
	i := sort.Search(len(r.queue), func(i int) bool { return r.at[r.queue[i]] > t })
	r.queue = append(r.queue, 0)
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = id
}

func (r *refQueue) cancel(id int) {
	for i, q := range r.queue {
		if q == id {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return
		}
	}
}

func (r *refQueue) run() {
	r.halted = false
	for len(r.queue) > 0 && !r.halted {
		id := r.queue[0]
		r.queue = r.queue[1:]
		r.now = r.at[id]
		r.fired++
		r.log = append(r.log, id)
		switch s := scriptFor(r.seed, id); s.kind {
		case scriptChild:
			r.schedule(r.now + s.d)
		case scriptSelfCancel:
			r.cancel(id)
		case scriptCancel:
			r.cancel(s.target % len(r.at))
		case scriptHalt:
			r.halted = true
		}
	}
}

// engineHarness drives an Engine with scripted handlers.
type engineHarness struct {
	seed    uint64
	e       *Engine
	handles []Event
	log     []int
	// reusedCancels counts cancels through a stale handle whose slot
	// already holds a later, still queued event.
	reusedCancels int
}

// scriptedEvent is the harness's handler for one id.
type scriptedEvent struct {
	h  *engineHarness
	id int
}

func (x *scriptedEvent) Fire() {
	h := x.h
	h.log = append(h.log, x.id)
	switch s := scriptFor(h.seed, x.id); s.kind {
	case scriptChild:
		h.schedule(h.e.Now()+s.d, false)
	case scriptSelfCancel:
		h.cancel(x.id)
	case scriptCancel:
		h.cancel(s.target % len(h.handles))
	case scriptHalt:
		h.e.Halt()
	}
}

func (h *engineHarness) schedule(t Time, after bool) {
	x := &scriptedEvent{h: h, id: len(h.handles)}
	h.handles = append(h.handles, Event{})
	if after {
		h.handles[x.id] = h.e.After(t-h.e.Now(), x)
	} else {
		h.handles[x.id] = h.e.At(t, x)
	}
}

func (h *engineHarness) cancel(id int) {
	ev := h.handles[id]
	if s := h.e.slots[ev.slot]; s.gen != ev.gen && s.h != nil {
		h.reusedCancels++
	}
	ev.Cancel()
}

// TestEngineMatchesSortedReference interleaves At, After, Cancel (of live,
// fired, cancelled and reused-slot handles, from outside and from inside
// handlers, the firing event's own included), Halt and Run, and
// checks the fire order, Fired, Pending and Now against a sorted-slice
// model after every step. Times are multiples of 0.5, so many events tie.
func TestEngineMatchesSortedReference(t *testing.T) {
	reused := 0
	for seed := uint64(1); seed <= 4; seed++ {
		h := &engineHarness{seed: seed, e: NewEngine()}
		ref := &refQueue{seed: seed}
		r := NewRNG(seed)
		for step := 0; step < 3000; step++ {
			d := Time(r.Intn(10)) / 2
			switch op := r.Intn(8); {
			case op < 3:
				h.schedule(h.e.Now()+d, false)
				ref.schedule(ref.now + d)
			case op < 5:
				// After clamps a negative delay to zero.
				neg := Time(r.Intn(3)) / 2
				h.schedule(h.e.Now()+d-neg, true)
				ref.schedule(ref.now + max(d-neg, 0))
			case op < 7:
				if n := len(ref.at); n > 0 {
					id := r.Intn(n)
					h.cancel(id)
					ref.cancel(id)
				}
			default:
				h.e.Run()
				ref.run()
			}
			if len(h.log) != len(ref.log) || h.e.Fired() != ref.fired || h.e.Pending() != len(ref.queue) || h.e.Now() != ref.now {
				t.Fatalf("seed %d step %d: engine fired %d (Fired %d, Pending %d, Now %v), reference fired %d (Pending %d, Now %v)",
					seed, step, len(h.log), h.e.Fired(), h.e.Pending(), h.e.Now(), len(ref.log), len(ref.queue), ref.now)
			}
			for i := range h.log {
				if h.log[i] != ref.log[i] {
					t.Fatalf("seed %d step %d: fire %d is event %d, reference %d", seed, step, i, h.log[i], ref.log[i])
				}
			}
		}
		if ref.fired < 1000 {
			t.Fatalf("seed %d fired only %d events", seed, ref.fired)
		}
		reused += h.reusedCancels
	}
	if reused == 0 {
		t.Fatal("no cancel went through a stale handle whose slot held a later event")
	}
}

// countingHandler counts its firings.
type countingHandler struct{ n int }

func (c *countingHandler) Fire() { c.n++ }

// TestEngineSchedulingAllocatesNothing: once the slab, the free list and
// the heap have grown, scheduling, cancelling and firing a Handler
// allocate nothing.
func TestEngineSchedulingAllocatesNothing(t *testing.T) {
	e := NewEngine()
	h := &countingHandler{}
	round := func() {
		for i := 0; i < 64; i++ {
			ev := e.After(Time(i%8), h)
			if i%5 == 0 {
				ev.Cancel()
			}
		}
		e.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a warm engine allocated %v times per round", allocs)
	}
	// One round above, AllocsPerRun's warm-up round, then its 100.
	if want := 102 * (64 - 13); h.n != want {
		t.Fatalf("fired %d, want %d", h.n, want)
	}
}
