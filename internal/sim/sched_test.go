package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClockTaskSleepInterleaving: tasks park at Sleep and interleave in
// virtual-time order, not spawn order.
func TestClockTaskSleepInterleaving(t *testing.T) {
	c := NewClock()
	var trace []string
	c.Go(func() {
		trace = append(trace, fmt.Sprintf("a0@%v", c.Now()))
		c.Sleep(30 * time.Millisecond)
		trace = append(trace, fmt.Sprintf("a1@%v", c.Now()))
	})
	c.Go(func() {
		trace = append(trace, fmt.Sprintf("b0@%v", c.Now()))
		c.Sleep(10 * time.Millisecond)
		trace = append(trace, fmt.Sprintf("b1@%v", c.Now()))
	})
	c.Run()
	want := "[a0@0s b0@0s b1@10ms a1@30ms]"
	if got := fmt.Sprint(trace); got != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

// TestClockDeterministicTrace: an interleaved workload produces the
// identical trace on every run.
func TestClockDeterministicTrace(t *testing.T) {
	run := func() string {
		c := NewClock()
		var trace []string
		for i := 0; i < 5; i++ {
			i := i
			c.Go(func() {
				for j := 0; j < 3; j++ {
					c.Sleep(time.Duration(1+(i+j)%3) * time.Millisecond)
					trace = append(trace, fmt.Sprintf("%d.%d@%v", i, j, c.Now()))
				}
			})
		}
		c.Run()
		return fmt.Sprint(trace)
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n%s\n%s", i, first, got)
		}
	}
}

func TestClockRunTask(t *testing.T) {
	c := NewClock()
	var tail int32
	// A background chain that ticks forever: RunTask must stop at root
	// completion rather than draining it.
	var tick func()
	tick = func() { atomic.AddInt32(&tail, 1); c.After(time.Second, tick) }
	c.After(time.Second, tick)
	total := time.Duration(0)
	c.RunTask(func() {
		for i := 0; i < 3; i++ {
			c.Sleep(2 * time.Second)
			total = c.Now()
		}
	})
	if total != 6*time.Second {
		t.Errorf("root finished at %v, want 6s", total)
	}
	if n := atomic.LoadInt32(&tail); n < 5 || n > 6 {
		t.Errorf("background chain ticked %d times, want 5-6", n)
	}
	if c.Pending() == 0 {
		t.Error("background chain should still have a pending event")
	}
}

func TestClockSleepCtxCanceled(t *testing.T) {
	c := NewClock()
	ctx, cancel := context.WithCancel(context.Background())
	var got error
	c.Go(func() {
		c.Go(func() { cancel() }) // cancels while the sibling sleeps
		got = c.SleepCtx(ctx, 50*time.Millisecond)
	})
	c.Run()
	if got != context.Canceled {
		t.Errorf("SleepCtx = %v, want context.Canceled", got)
	}
	if c.Now() != 50*time.Millisecond {
		t.Errorf("virtual cancellation observed at %v, want at wake (50ms)", c.Now())
	}
}

func TestClockAfterFuncStop(t *testing.T) {
	c := NewClock()
	ran := false
	tm := c.AfterFunc(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer = false")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true")
	}
	c.Run()
	if ran {
		t.Fatal("stopped timer fired")
	}
}

func TestClockJoinOrderAndCompletion(t *testing.T) {
	c := NewClock()
	var order []int
	c.RunTask(func() {
		var fns []func()
		for i := 0; i < 4; i++ {
			i := i
			fns = append(fns, func() {
				c.Sleep(time.Duration(4-i) * time.Millisecond)
				order = append(order, i)
			})
		}
		c.Join(2, fns...)
		if c.Now() != 4*time.Millisecond {
			t.Errorf("Join returned at %v, want 4ms (slowest child)", c.Now())
		}
	})
	if fmt.Sprint(order) != "[3 2 1 0]" {
		t.Errorf("children completed in %v, want wake order [3 2 1 0]", order)
	}
}

func TestClockWaiterWakeBeatsDeadline(t *testing.T) {
	c := NewClock()
	woken := false
	c.RunTask(func() {
		w := c.NewWaiter()
		c.After(10*time.Millisecond, func() { w.Wake() })
		woken = w.Wait(time.Second)
	})
	if !woken {
		t.Fatal("Wait = false, want woken")
	}
	if c.Now() != 10*time.Millisecond {
		t.Errorf("woke at %v, want 10ms", c.Now())
	}
}

func TestClockWaiterTimeout(t *testing.T) {
	c := NewClock()
	woken := true
	c.RunTask(func() {
		w := c.NewWaiter()
		c.After(time.Second, func() { w.Wake() }) // too late
		woken = w.Wait(100 * time.Millisecond)
	})
	if woken {
		t.Fatal("Wait = true, want timeout")
	}
	if c.Now() < 100*time.Millisecond {
		t.Errorf("timed out at %v, want >= 100ms", c.Now())
	}
}

func TestClockWaiterWakeBeforeWait(t *testing.T) {
	c := NewClock()
	woken := false
	c.RunTask(func() {
		w := c.NewWaiter()
		w.Wake()
		woken = w.Wait(-1)
	})
	if !woken {
		t.Fatal("Wake before Wait was lost")
	}
}

// TestClockWaiterWakeRacesDeadline: Wake and Stop from a goroutine
// outside the clock race the event loop firing the same handles'
// embedded events. Every waiter resumes exactly once, with nothing left
// pending, and every timer either fires or is stopped, never both.
func TestClockWaiterWakeRacesDeadline(t *testing.T) {
	const n = 300
	c := NewClock()
	waiters := make([]Waiter, n)
	timers := make([]Timer, n)
	fired := make([]int, n)
	stopped := make([]bool, n)
	resumed := make([]int, n)
	for i := range waiters {
		waiters[i] = c.NewWaiter()
		timers[i] = c.AfterFunc(time.Duration(i%7)*time.Millisecond, func() { fired[i]++ })
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := range waiters {
			waiters[i].Wake()
			stopped[i] = timers[i].Stop()
		}
	}()
	c.RunTask(func() {
		for i := range waiters {
			c.Go(func() {
				waiters[i].Wait(time.Duration(i%5) * time.Millisecond)
				resumed[i]++
			})
		}
		close(start)
		c.Sleep(10 * time.Millisecond)
	})
	wg.Wait()
	c.Run() // resumes the waiters whose Wake landed after the first drive
	for i := range waiters {
		if resumed[i] != 1 {
			t.Errorf("waiter %d resumed %d times, want 1", i, resumed[i])
		}
		if stopped[i] == (fired[i] == 1) || fired[i] > 1 {
			t.Errorf("timer %d: fired %d times, Stop reported %v", i, fired[i], stopped[i])
		}
	}
	if p := c.Pending(); p != 0 {
		t.Errorf("Pending() = %d after the drain, want 0", p)
	}
}

func TestClockBlockingOutsideTaskPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Error("Sleep outside a task did not panic")
		}
	}()
	c.Sleep(time.Second)
}

func TestClockRunPanicsOnDeadlock(t *testing.T) {
	c := NewClock()
	c.Go(func() { c.NewWaiter().Wait(-1) }) // nobody will wake it
	defer func() {
		if recover() == nil {
			t.Error("Run with a stranded task did not panic")
		}
	}()
	c.Run()
}

func TestWallSchedulerBasics(t *testing.T) {
	w := NewWall()
	if err := w.SleepCtx(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("SleepCtx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.SleepCtx(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("SleepCtx canceled = %v", err)
	}

	var mu sync.Mutex
	running, peak := 0, 0
	var fns []func()
	for i := 0; i < 8; i++ {
		fns = append(fns, func() {
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			w.Sleep(5 * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
		})
	}
	w.Join(2, fns...)
	if peak > 2 {
		t.Errorf("Join(2) peak concurrency %d, want <= 2", peak)
	}

	wait := w.NewWaiter()
	if wait.Wait(time.Millisecond) {
		t.Error("Wait without Wake = true")
	}
	wait2 := w.NewWaiter()
	wait2.Wake()
	wait2.Wake() // extra wakes are no-ops
	if !wait2.Wait(-1) {
		t.Error("Wake before Wait lost")
	}

	tm := w.AfterFunc(time.Hour, func() {})
	if !tm.Stop() {
		t.Error("Stop on pending wall timer = false")
	}
}
