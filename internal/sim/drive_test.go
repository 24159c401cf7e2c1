package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// A drive passes the virtual CPU from task to task until its stopping
// rule ends it. These tests pin that the rule, not the goroutine that
// happens to hold the CPU, decides what runs: every way of driving the
// same schedule fires the same events in the same order.

// driveScript builds a seeded random schedule on c and returns its root
// body; the caller starts the root (Go or RunTask) and drives. Bodies
// draw from one generator, so any difference in the order events fire
// changes every later draw and shows in the trace. Each trace line is
// (now, label, Pending, Executed) as the body that logs it sees them.
// rootEnd receives Executed() at the moment the root returns.
func driveScript(c *Clock, seed int64, trace *[]string, rootEnd *uint64) func() {
	rng := rand.New(rand.NewSource(seed))
	logf := func(format string, args ...interface{}) {
		*trace = append(*trace, fmt.Sprintf("%v %s pending=%d executed=%d",
			c.Now(), fmt.Sprintf(format, args...), c.Pending(), c.Executed()))
	}
	// Delays come from a small set so that equal-time events, whose
	// order is the schedule id alone, are common.
	delay := func() time.Duration { return time.Duration(rng.Intn(4)) * time.Millisecond }
	ids := 0
	var actor func(id, depth int)
	spawn := func(depth int) func() {
		ids++
		id := ids
		return func() { actor(id, depth+1) }
	}
	actor = func(id, depth int) {
		logf("actor %d start", id)
		for step := 0; step < 5; step++ {
			op := rng.Intn(11)
			if depth >= 3 && op >= 2 && op <= 4 {
				op = 0 // bound the tree of spawned actors
			}
			switch op {
			case 0:
				c.Sleep(delay())
				logf("actor %d slept", id)
			case 1:
				c.Sleep(0)
				logf("actor %d yielded", id)
			case 2:
				c.After(delay(), spawn(depth))
			case 3:
				c.At(c.Now()+delay(), spawn(depth))
			case 4:
				c.Go(spawn(depth))
			case 5:
				tm := c.AfterFunc(delay(), func() { logf("actor %d timer fired", id) })
				if rng.Intn(2) == 0 {
					logf("actor %d timer stop %v", id, tm.Stop())
				}
			case 6:
				fns := make([]func(), 2+rng.Intn(2))
				for k := range fns {
					k, d, exit := k, delay(), rng.Intn(4) == 0
					fns[k] = func() {
						c.Sleep(d)
						logf("actor %d join member %d", id, k)
						if exit {
							runtime.Goexit()
						}
					}
				}
				c.Join(0, fns...)
				logf("actor %d joined", id)
			case 7:
				// Wait(timeout) racing a Wake: ties go by schedule id.
				w := c.NewWaiter()
				c.After(delay(), func() { w.Wake(); logf("actor %d wake", id) })
				logf("actor %d wait woken=%v", id, w.Wait(delay()))
			case 8:
				w := c.NewWaiter()
				w.Wake()
				logf("actor %d early wake woken=%v", id, w.Wait(delay()))
			case 9:
				d := delay()
				c.Go(func() {
					c.Sleep(d)
					logf("actor %d child exits its goroutine", id)
					runtime.Goexit()
				})
			case 10:
				w := c.NewWaiter()
				logf("actor %d lone wait woken=%v", id, w.Wait(delay()))
			}
		}
		logf("actor %d done", id)
	}
	return func() {
		for k := 0; k < 3; k++ {
			c.Go(spawn(0))
		}
		actor(0, 0)
		*rootEnd = c.Executed()
	}
}

// driveRun is one way of driving driveScript's schedule to the end.
type driveRun struct {
	trace    []string
	executed uint64
	pending  int
	fired    int    // events the drive calls reported
	rootEnd  uint64 // Executed() when the root returned
	atReturn uint64 // RunTask only: Executed() when RunTask returned
}

// TestClockDriveModesAgree drives each seeded schedule with bare Step
// calls (the CPU comes back to the caller after every event), with Run,
// with RunTask (then Run for what the root left behind), and with
// RunUntil in slices that cut through tasks' sleeps. Traces, Executed
// and Pending must agree, and each drive call must report what it ran.
func TestClockDriveModesAgree(t *testing.T) {
	modes := []struct {
		name  string
		drive func(c *Clock, root func(), r *driveRun)
	}{
		{"Step", func(c *Clock, root func(), r *driveRun) {
			c.Go(root)
			for c.Step() {
				r.fired++
			}
		}},
		{"Run", func(c *Clock, root func(), r *driveRun) {
			c.Go(root)
			r.fired = c.Run()
		}},
		{"RunTask", func(c *Clock, root func(), r *driveRun) {
			r.fired = c.RunTask(root)
			r.atReturn = c.Executed()
			r.fired += c.Run()
		}},
		{"RunUntil", func(c *Clock, root func(), r *driveRun) {
			c.Go(root)
			var deadline time.Duration
			for k := 0; c.Pending() > 0; k++ {
				deadline += time.Duration(1+k%3) * 500 * time.Microsecond
				r.fired += c.RunUntil(deadline)
				if c.Now() != deadline {
					t.Fatalf("RunUntil(%v) left the clock at %v", deadline, c.Now())
				}
			}
		}},
	}
	for seed := int64(1); seed <= 12; seed++ {
		var ref driveRun
		for i, m := range modes {
			c := NewClock()
			var r driveRun
			root := driveScript(c, seed, &r.trace, &r.rootEnd)
			m.drive(c, root, &r)
			r.executed, r.pending = c.Executed(), c.Pending()
			if r.fired != int(r.executed) {
				t.Errorf("seed %d, %s: drive calls reported %d events, Executed() = %d", seed, m.name, r.fired, r.executed)
			}
			if m.name == "RunTask" && r.atReturn != r.rootEnd {
				t.Errorf("seed %d: RunTask returned at %d events, the root returned at %d", seed, r.atReturn, r.rootEnd)
			}
			if i == 0 {
				ref = r
				if len(ref.trace) < 40 {
					t.Fatalf("seed %d: schedule too small to mean anything (%d trace lines)", seed, len(ref.trace))
				}
				continue
			}
			if r.executed != ref.executed || r.pending != ref.pending {
				t.Errorf("seed %d, %s: Executed %d Pending %d, Step drive: %d and %d",
					seed, m.name, r.executed, r.pending, ref.executed, ref.pending)
			}
			for k := 0; k < len(r.trace) || k < len(ref.trace); k++ {
				var got, want string
				if k < len(r.trace) {
					got = r.trace[k]
				}
				if k < len(ref.trace) {
					want = ref.trace[k]
				}
				if got != want {
					t.Fatalf("seed %d, %s: trace diverges from the Step drive at line %d:\n  %s: %q\n  Step: %q",
						seed, m.name, k, m.name, got, want)
				}
			}
		}
	}
}

// TestClockStepRunsOneEventWhenSelfResumes: a task whose own resume is
// the next event carries on without a goroutine switch, but a Step is
// still one event — the task's Sleep(0) ends it.
func TestClockStepRunsOneEventWhenSelfResumes(t *testing.T) {
	c := NewClock()
	n := 0
	c.Go(func() {
		for i := 0; i < 3; i++ {
			c.Sleep(0)
			n++
		}
	})
	steps := 0
	for c.Step() {
		if n != steps {
			t.Fatalf("after Step %d the task has resumed %d times, want %d", steps+1, n, steps)
		}
		steps++
	}
	if steps != 4 || n != 3 {
		t.Fatalf("%d Steps, %d resumes; want 4 Steps (start + 3 resumes) and 3", steps, n)
	}
}

// TestClockRunUntilStopsInsideTask: a task asleep across the deadline
// stays asleep; the clock stands at the deadline with its wake pending.
func TestClockRunUntilStopsInsideTask(t *testing.T) {
	c := NewClock()
	var ticks []time.Duration
	c.Go(func() {
		for i := 0; i < 5; i++ {
			ticks = append(ticks, c.Now())
			c.Sleep(10 * time.Millisecond)
		}
	})
	if n := c.RunUntil(25 * time.Millisecond); n != 3 {
		t.Fatalf("RunUntil(25ms) ran %d events, want 3 (start, wakes at 10ms and 20ms)", n)
	}
	if c.Now() != 25*time.Millisecond || c.Pending() != 1 {
		t.Fatalf("after RunUntil(25ms): now %v, %d pending; want 25ms and the 30ms wake", c.Now(), c.Pending())
	}
	if fmt.Sprint(ticks) != "[0s 10ms 20ms]" {
		t.Fatalf("ticks %v before the deadline, want [0s 10ms 20ms]", ticks)
	}
	if n := c.RunUntil(30 * time.Millisecond); n != 1 || len(ticks) != 4 {
		t.Fatalf("RunUntil(30ms) ran %d events, %d ticks; want the one wake at the deadline", n, len(ticks))
	}
	c.Run()
	if len(ticks) != 5 {
		t.Fatalf("%d ticks after Run, want 5", len(ticks))
	}
}

// TestClockRunTaskPanicsOnDeadlock: a root parked with nothing left to
// wake it ends the drive, and RunTask says so instead of returning as if
// the root had finished.
func TestClockRunTaskPanicsOnDeadlock(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Error("RunTask with a stranded root did not panic")
		}
	}()
	c.RunTask(func() {
		c.After(time.Millisecond, func() {})
		c.NewWaiter().Wait(-1) // nobody will wake it
	})
}

// The four costs the execution model trades in, each per operation:
// a task's Sleep and resume, an After chain (each body schedules the
// next), a two-task Wake/Wait round, and an AfterFunc fired by a bare
// Step (a drive per event: a fresh worker every time).

func BenchmarkClockSleepResume(b *testing.B) {
	c := NewClock()
	b.ReportAllocs()
	c.RunTask(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Sleep(time.Microsecond)
		}
	})
}

func BenchmarkClockAfterChain(b *testing.B) {
	c := NewClock()
	n := 0
	var next func()
	next = func() {
		if n++; n < b.N {
			c.After(time.Microsecond, next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	c.After(0, next)
	c.Run()
}

func BenchmarkClockPingPong(b *testing.B) {
	c := NewClock()
	var toA, toB Waiter
	toB = c.NewWaiter()
	b.ReportAllocs()
	b.ResetTimer()
	c.RunTask(func() {
		c.Go(func() {
			for i := 0; i < b.N; i++ {
				toB.Wait(-1)
				a := toA
				toB = c.NewWaiter()
				a.Wake()
			}
		})
		for i := 0; i < b.N; i++ {
			toA = c.NewWaiter()
			toB.Wake()
			toA.Wait(-1)
		}
	})
}

func BenchmarkClockTimerStep(b *testing.B) {
	c := NewClock()
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AfterFunc(time.Millisecond, fn)
		c.Step()
	}
}
