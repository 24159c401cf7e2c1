package sim

import (
	"runtime"
	"testing"
	"time"
)

// The Clock reuses two things across events — worker goroutines and
// event records — and both reuses have a failure mode a functional test
// never sees: goroutines that outlive their clock, and a handle that
// answers for a recycled record. These tests pin the lifecycle.

// settleGoroutines waits for the goroutine count to drop to at most
// want: a released worker exits on its own schedule after the loop has
// moved on. It returns the last count read.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 2000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestDroppedClocksLeakNoGoroutines: every drive call releases its idle
// workers on return, so clocks that are simply dropped leave nothing.
func TestDroppedClocksLeakNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 500; i++ {
		c := NewClock()
		finished := 0
		c.RunTask(func() {
			for k := 0; k < 200; k++ {
				k := k
				c.Go(func() {
					c.Sleep(time.Duration(k+1) * time.Millisecond)
					finished++
				})
			}
			c.Sleep(time.Second)
		})
		if finished != 200 {
			t.Fatalf("clock %d: %d of 200 sleepers finished", i, finished)
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines: %d before, %d after 500 dropped clocks", base, n)
	}
}

// TestIdleWorkersAreBounded: a burst of concurrently parked tasks needs
// one goroutine each while they sleep, but once they finish only
// maxIdleWorkers stay parked for reuse — while the clock is still
// running, not just after it stops.
func TestIdleWorkersAreBounded(t *testing.T) {
	const burst = 10_000
	base := runtime.NumGoroutine()
	c := NewClock()
	var during, idle int
	c.RunTask(func() {
		for k := 0; k < burst; k++ {
			c.Go(func() { c.Sleep(time.Second) })
		}
		c.Sleep(2 * time.Second)
		// All sleepers are done; this task is the +1.
		during = settleGoroutines(base + maxIdleWorkers + 1)
		c.mu.Lock()
		idle = len(c.idle)
		c.mu.Unlock()
		// The survivors are reused, not replaced.
		for k := 0; k < 3*maxIdleWorkers; k++ {
			c.Go(func() {})
		}
		c.Sleep(time.Millisecond)
	})
	if during > base+maxIdleWorkers+1 {
		t.Fatalf("%d goroutines alive after a %d-task burst (base %d, idle bound %d)", during, burst, base, maxIdleWorkers)
	}
	if idle != maxIdleWorkers {
		t.Fatalf("idle list holds %d workers after the burst, want the bound %d", idle, maxIdleWorkers)
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines: %d before, %d after RunTask returned", base, n)
	}
}

// TestShardRunnerReleasesWorkers: the sharded runner drives its clocks
// window by window; workers must survive the windows and exit with Run.
func TestShardRunnerReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	r := NewShardRunner(3, 10*time.Millisecond)
	ran := make([]int, r.Shards()) // one counter per shard goroutine
	for s := 0; s < r.Shards(); s++ {
		s, c := s, r.Clock(s)
		for k := 0; k < 50; k++ {
			c.After(time.Duration(k)*7*time.Millisecond, func() {
				c.Sleep(5 * time.Millisecond)
				ran[s]++
			})
		}
	}
	r.Run(time.Second)
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines: %d before, %d after ShardRunner.Run", base, n)
	}
	for s, n := range ran {
		if n != 50 {
			t.Fatalf("shard %d ran %d of 50 tasks", s, n)
		}
	}
}

// TestHandlesSurviveRecycling: an AfterFunc timer and a Waiter deadline
// keep a pointer to their event, so those events are never recycled —
// Stop after fire and Wake after timeout must stay no-ops however many
// times the records around them have been reused, and must not reach
// into an event that now belongs to someone else.
func TestHandlesSurviveRecycling(t *testing.T) {
	c := NewClock()
	timerFired := false
	tm := c.AfterFunc(time.Millisecond, func() { timerFired = true })
	w := c.NewWaiter()
	var woken bool
	c.RunTask(func() { woken = w.Wait(time.Millisecond) })
	if !timerFired || woken {
		t.Fatalf("setup: timer fired %v, waiter woken %v", timerFired, woken)
	}
	held := tm.(*clockTimer).e

	// Churn the free list: every After below reuses a record.
	churned := 0
	c.RunTask(func() {
		for i := 0; i < 10_000; i++ {
			c.After(time.Microsecond, func() { churned++ })
			c.Sleep(2 * time.Microsecond)
		}
	})
	if churned != 10_000 {
		t.Fatalf("churn ran %d of 10000 events", churned)
	}
	c.mu.Lock()
	for _, e := range c.free {
		if e == held {
			t.Fatal("a fired AfterFunc event is on the free list: its Timer still points at it")
		}
		if e.held || e.fired || e.canceled || e.fn != nil || e.t != nil || e.w != nil {
			t.Fatalf("free-list event not reset: %+v", *e)
		}
	}
	nfree := len(c.free)
	c.mu.Unlock()
	if nfree == 0 {
		t.Fatal("free list is empty after 10^4 one-shot events: nothing is being recycled")
	}

	// Pending events now live in recycled records. Stale handles must not
	// cancel, wake or double-count any of them.
	late := 0
	for i := 0; i < 100; i++ {
		c.After(time.Duration(i)*time.Microsecond, func() { late++ })
	}
	if tm.Stop() {
		t.Fatal("Stop reported a fired timer as still pending")
	}
	w.Wake()
	if w.Wait(0) {
		t.Fatal("a timed-out waiter reported woken after a late Wake")
	}
	if p := c.Pending(); p != 100 {
		t.Fatalf("stale handles disturbed the queue: %d pending, want 100", p)
	}
	c.Run()
	if late != 100 {
		t.Fatalf("%d of 100 events ran after stale Stop/Wake", late)
	}

	// A stopped timer's record is discarded by the store, never reused:
	// Stop twice, fire nothing.
	stopped := c.AfterFunc(time.Millisecond, func() { t.Error("stopped timer fired") })
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop/Stop on a pending timer: want true then false")
	}
	c.Run()
}

// TestWheelReleasesFiredEvents: the wheel must not keep a fired event —
// and through it the body and whatever the body captured — reachable
// from a drained slot. 10^5 one-shot events that each pin 1 KiB are
// ~100 MB if retained; after the drain the heap must be back near where
// it started. What legitimately stays is the wheel's working set, kept
// for the next turn by design: here ~600 KiB, mostly the spare slabs the
// 4096 level-1 slots handed back (16 pointers each), plus the event free
// list.
func TestWheelReleasesFiredEvents(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c := NewClock()
	c.After(0, func() {})
	c.Run() // the wheel itself is allocated on first use
	before := heap()

	const n = 100_000
	fired := 0
	for i := 0; i < n; i++ {
		buf := make([]byte, 1024)
		// Spread over level 0, level 1 and the overflow heap.
		c.After(time.Duration(i)*300*time.Microsecond, func() { fired += len(buf) / 1024 })
	}
	c.Run()
	if fired != n {
		t.Fatalf("%d of %d events fired", fired, n)
	}
	after := heap()
	const slack = 1 << 20
	if after > before+slack {
		t.Fatalf("heap grew %d KiB across %d drained events (limit %d KiB): fired events are still reachable",
			(after-before)>>10, n, slack>>10)
	}
	runtime.KeepAlive(c)
}

// TestClockAllocs gates the steady-state cost of the two things a
// virtual-clock run does all day: After → fire → body finishes, and
// Sleep → resume. Both must allocate nothing once the worker, the event
// records and the wheel slots are warm.
func TestClockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := NewClock()
	ran := 0
	body := func() { ran++ }
	var after, sleep float64
	c.RunTask(func() {
		// Warm the worker, the event free list and the wheel's spare
		// slabs.
		for i := 0; i < 100; i++ {
			c.After(time.Millisecond, body)
			c.Sleep(time.Millisecond)
		}
		sleep = testing.AllocsPerRun(2000, func() { c.Sleep(time.Millisecond) })
		after = testing.AllocsPerRun(2000, func() {
			c.After(500*time.Microsecond, body)
			c.Sleep(time.Millisecond)
		})
	})
	if sleep != 0 {
		t.Errorf("Sleep → resume: %.2f allocs, want 0", sleep)
	}
	if after != 0 {
		t.Errorf("After → fire → finish (+ the Sleep that drives it): %.2f allocs, want 0", after)
	}
	if ran < 2100 {
		t.Fatalf("bodies ran %d times", ran)
	}
}

// TestTaskThatExitsItsGoroutine: a task that ends the goroutine under it
// — runtime.Goexit, which is what t.Fatal does — still gives the virtual
// CPU back, whether it is a RunTask root, a Go task or a Join member. The
// loop used to wait for the exited worker to park, forever.
func TestTaskThatExitsItsGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drive func(c *Clock, after *bool)
	}{
		{"RunTask root", func(c *Clock, after *bool) {
			c.RunTask(func() { runtime.Goexit() })
			c.RunTask(func() { *after = true })
		}},
		{"Go task", func(c *Clock, after *bool) {
			c.RunTask(func() {
				c.Go(func() { runtime.Goexit() })
				c.Sleep(time.Millisecond)
				*after = true
			})
		}},
		{"Join member", func(c *Clock, after *bool) {
			c.RunTask(func() {
				c.Join(0, func() { runtime.Goexit() }, func() { c.Sleep(time.Millisecond) })
				*after = true
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c := NewClock()
			after := false
			finished := make(chan struct{})
			go func() {
				defer close(finished)
				tc.drive(c, &after)
				c.Run() // panics if an exited task is still counted as live
			}()
			select {
			case <-finished:
			case <-time.After(10 * time.Second):
				t.Fatal("the clock hung on a task that exited its goroutine")
			}
			if !after {
				t.Error("the work after the exited task did not run")
			}
			if n := settleGoroutines(base); n > base {
				t.Errorf("goroutines: %d before, %d after", base, n)
			}
		})
	}
}
