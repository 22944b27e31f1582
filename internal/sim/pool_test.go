package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// poolSizes covers the serial pool (goroutine-free), the nil pool, and
// genuinely concurrent pools; every engine-facing behaviour must be
// identical across them.
func poolSizes() []int { return []int{1, 2, 4, 8} }

func TestPoolSubmitWaitAllSizes(t *testing.T) {
	for _, w := range poolSizes() {
		p := NewPool(w)
		var tasks []*Task
		for i := 0; i < 32; i++ {
			i := i
			tasks = append(tasks, p.Submit(func() any { return i * i }))
		}
		for i, task := range tasks {
			if got := task.Wait().(int); got != i*i {
				t.Fatalf("workers=%d: task %d = %d, want %d", w, i, got, i*i)
			}
		}
		p.Close()
	}
}

func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 || p.Parallel() {
		t.Fatalf("nil pool: Workers=%d Parallel=%v, want 1/false", p.Workers(), p.Parallel())
	}
	ran := false
	task := p.Submit(func() any { ran = true; return "ok" })
	if ran {
		t.Fatal("nil pool ran the compute at Submit; must be lazy")
	}
	if got := task.Wait().(string); got != "ok" || !ran {
		t.Fatalf("nil pool Wait = %q (ran=%v)", got, ran)
	}
	p.Close() // must not panic
}

func TestSerialPoolSpawnsNoGoroutines(t *testing.T) {
	p := NewPool(1)
	// A serial pool must execute strictly lazily and in Wait order, which
	// is only possible if nothing runs in the background.
	order := ""
	t1 := p.Submit(func() any { order += "a"; return nil })
	t2 := p.Submit(func() any { order += "b"; return nil })
	if order != "" {
		t.Fatalf("serial pool ran computes eagerly: %q", order)
	}
	t2.Wait()
	t1.Wait()
	if order != "ba" {
		t.Fatalf("serial pool order = %q, want %q (lazy, in Wait order)", order, "ba")
	}
	p.Close()
}

func TestWaitStealsQueuedTask(t *testing.T) {
	// With every worker goroutine wedged on a blocker task, a queued task
	// can only complete if Wait claims and runs it inline.
	p := NewPool(2)
	defer p.Close()
	gate := make(chan struct{})
	blocker := p.Submit(func() any { <-gate; return nil })
	stolen := p.Submit(func() any { return 7 })
	if got := stolen.Wait().(int); got != 7 {
		t.Fatalf("stolen task = %d, want 7", got)
	}
	close(gate)
	blocker.Wait()
}

func TestPoolPanicPropagatesAtWait(t *testing.T) {
	for _, w := range poolSizes() {
		p := NewPool(w)
		task := p.Submit(func() any { panic("boom") })
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", w, r)
				}
			}()
			task.Wait()
			t.Fatalf("workers=%d: Wait returned after panic", w)
		}()
		p.Close()
	}
}

func TestDiscardPreventsExecution(t *testing.T) {
	for _, w := range poolSizes() {
		p := NewPool(w)
		// Wedge the workers so the victim stays queued until Discard.
		gate := make(chan struct{})
		var blockers []*Task
		for i := 1; i < w; i++ {
			blockers = append(blockers, p.Submit(func() any { <-gate; return nil }))
		}
		var ran atomic.Bool
		victim := p.Submit(func() any { ran.Store(true); return nil })
		victim.Discard()
		close(gate)
		for _, b := range blockers {
			b.Wait()
		}
		p.Close()
		if ran.Load() {
			t.Fatalf("workers=%d: discarded task executed", w)
		}
	}
}

func TestWaitOnDiscardedTaskPanics(t *testing.T) {
	for _, w := range []int{1, 4} {
		p := NewPool(w)
		gate := make(chan struct{})
		for i := 1; i < w; i++ {
			p.Submit(func() any { <-gate; return nil })
		}
		task := p.Submit(func() any { return nil })
		task.Discard()
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != "sim: Wait on discarded task" {
					t.Fatalf("workers=%d: recovered %v", w, r)
				}
			}()
			task.Wait()
		}()
		close(gate)
		p.Close()
	}
}

func TestCloseIsIdempotentAndLeavesTasksClaimable(t *testing.T) {
	p := NewPool(4)
	gate := make(chan struct{})
	for i := 0; i < 3; i++ {
		p.Submit(func() any { <-gate; return nil })
	}
	straggler := p.Submit(func() any { return 11 })
	close(gate)
	p.Close()
	p.Close()
	// Dropped from the queue at Close, but Wait still computes it inline.
	if got := straggler.Wait().(int); got != 11 {
		t.Fatalf("straggler after Close = %d, want 11", got)
	}
	if task := p.Submit(func() any { return 13 }); task.Wait().(int) != 13 {
		t.Fatal("Submit after Close must return a lazy, claimable task")
	}
}

func TestNestedWaitDoesNotDeadlock(t *testing.T) {
	// An outer pool task that submits and waits on inner tasks must make
	// progress even when the pool has a single worker goroutine: Wait
	// steals queued work inline.
	p := NewPool(2)
	defer p.Close()
	outer := p.Submit(func() any {
		sum := 0
		var inner []*Task
		for i := 0; i < 8; i++ {
			i := i
			inner = append(inner, p.Submit(func() any { return i }))
		}
		for _, task := range inner {
			sum += task.Wait().(int)
		}
		return sum
	})
	if got := outer.Wait().(int); got != 28 {
		t.Fatalf("nested sum = %d, want 28", got)
	}
}
