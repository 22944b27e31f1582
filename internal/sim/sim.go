// Package sim provides a deterministic discrete-event simulation core:
// a virtual clock, an event queue, and a seeded random number generator.
// All HeteroDoop cluster experiments run on virtual time produced by this
// engine, so results are bit-reproducible and independent of the host.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Event is a scheduled callback. Events with equal time fire in the order
// of their sequence numbers (i.e., scheduling order), which keeps runs
// deterministic.
type Event struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int
}

// Time reports when the event fires (or was scheduled to fire).
func (e *Event) Time() Time { return e.at }

// Cancel marks the event so that it will not fire. Cancelling an already
// fired or cancelled event is a no-op.
func (e *Event) Cancel() { e.dead = true }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now    Time
	queue  eventQueue
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

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a logic error in the caller.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d seconds from now. Negative delays are clamped
// to zero.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Halt stops the run loop after the current event completes.
func (e *Engine) Halt() { e.halted = true }

// Run executes events until the queue drains, Halt is called, or the event
// limit trips. It returns the final virtual time.
func (e *Engine) Run() Time {
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.dead {
			continue
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.fired++
		if e.limit > 0 && e.fired > e.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", e.limit, e.now))
		}
		ev.fn()
	}
	return e.now
}

// RunUntil executes events with firing times <= deadline, leaving later
// events queued, and advances the clock to min(deadline, last event time).
func (e *Engine) RunUntil(deadline Time) Time {
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		ev := e.queue[0]
		if ev.at > deadline {
			break
		}
		heap.Pop(&e.queue)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		if e.limit > 0 && e.fired > e.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", e.limit, e.now))
		}
		ev.fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Pending reports the number of live queued events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.dead {
			n++
		}
	}
	return n
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
