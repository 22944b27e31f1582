// Package sim provides a deterministic discrete-event simulation core:
// a virtual clock, an event queue, and a seeded random number generator.
// All HeteroDoop cluster experiments run on virtual time produced by this
// engine, so results are bit-reproducible and independent of the host.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Handler is an event's callback. A caller that schedules values it built
// once allocates nothing per event; Func adapts a closure for the rest.
type Handler interface {
	Fire()
}

// Func adapts a function to a Handler.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is a handle to a scheduled event: the slab slot holding its
// handler and that slot's generation when it was scheduled. The zero Event
// refers to nothing.
type Event struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Cancel keeps the event from firing. Once the event has fired or been
// cancelled its slot's generation has moved on, so Cancel does nothing,
// even after the slot holds a later event.
func (ev Event) Cancel() {
	e := ev.eng
	if e == nil {
		return
	}
	s := &e.slots[ev.slot]
	if s.gen != ev.gen {
		return
	}
	s.h = nil
	s.gen++
	e.live--
}

// entry is one queued event: it fires at at, ties broken by seq (the
// scheduling order), and its handler sits in slot.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a entry) less(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot holds a queued event's handler; h is nil once the event has fired
// or been cancelled. gen counts the events the slot has fired or
// cancelled.
type slot struct {
	h   Handler
	gen uint32
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
//
// The queue is a binary min-heap of entries ordered by (at, seq) over a
// slab of handler slots with a free list. A cancelled entry stays in the
// heap until it reaches the top; its slot returns to the free list then,
// and a fired one's as it fires. seq is unique, so the order events fire
// in does not depend on how the heap breaks ties.
type Engine struct {
	now    Time
	heap   []entry
	slots  []slot
	free   []int32
	live   int // scheduled events neither fired nor cancelled
	seq    uint64
	fired  uint64
	limit  uint64 // safety valve against runaway simulations; 0 = unlimited
	halted bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetEventLimit installs a safety cap on the total number of events; Run
// panics if it is exceeded. Zero disables the cap.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// At schedules h to fire at absolute virtual time t. Scheduling in the
// past panics: it indicates a logic error in the caller.
func (e *Engine) At(t Time, h Handler) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	s := &e.slots[i]
	s.h = h
	e.push(entry{at: t, seq: e.seq, slot: i})
	e.seq++
	e.live++
	return Event{eng: e, slot: i, gen: s.gen}
}

// After schedules h to fire d seconds from now. Negative delays are
// clamped to zero.
func (e *Engine) After(d Duration, h Handler) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, h)
}

// Halt stops the run loop after the current event completes.
func (e *Engine) Halt() { e.halted = true }

// Run executes events until the queue drains, Halt is called, or the event
// limit trips. It returns the final virtual time.
func (e *Engine) Run() Time {
	e.halted = false
	for len(e.heap) > 0 && !e.halted {
		e.fire(e.pop())
	}
	return e.now
}

// RunUntil executes events with firing times <= deadline, leaving later
// events queued, and then advances the clock to the deadline. After Halt
// the clock stays at the halting event, since events before the deadline
// may still be queued.
func (e *Engine) RunUntil(deadline Time) Time {
	e.halted = false
	for len(e.heap) > 0 && !e.halted && e.heap[0].at <= deadline {
		e.fire(e.pop())
	}
	if !e.halted && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// fire runs a popped entry's handler unless it was cancelled, and frees
// its slot either way.
func (e *Engine) fire(top entry) {
	s := &e.slots[top.slot]
	h := s.h
	e.free = append(e.free, top.slot)
	if h == nil {
		return
	}
	s.h = nil
	s.gen++
	e.live--
	if top.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = top.at
	e.fired++
	if e.limit > 0 && e.fired > e.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", e.limit, e.now))
	}
	h.Fire()
}

// Pending reports the number of live queued events.
func (e *Engine) Pending() int { return e.live }

// push adds x to the heap.
func (e *Engine) push(x entry) {
	h := append(e.heap, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	e.heap = h
}

// pop removes and returns the heap's minimum.
func (e *Engine) pop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = x
	}
	e.heap = h
	return top
}

// RNG is a small, fast, seedable pseudo-random generator (xorshift64*),
// embedded rather than math/rand so that streams are stable across Go
// releases. The zero value is invalid; use NewRNG.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (zero is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Zipf draws from a Zipf-like distribution over [0, n) with exponent s>0
// using inverse-CDF on a precomputed table is avoided for memory; this uses
// rejection-free approximate inversion, adequate for synthetic workloads.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Approximate inversion for the Zipf CDF with exponent s using the
	// continuous analogue: P(X <= x) ~ (x^(1-s)-1)/(n^(1-s)-1) for s != 1.
	u := r.Float64()
	if s == 1 {
		x := math.Pow(float64(n), u)
		k := int(x) - 1
		if k < 0 {
			k = 0
		}
		if k >= n {
			k = n - 1
		}
		return k
	}
	oneMinus := 1 - s
	x := math.Pow(u*(math.Pow(float64(n), oneMinus)-1)+1, 1/oneMinus)
	k := int(x) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
