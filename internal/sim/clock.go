package sim

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Clock is a virtual simulation clock and deterministic task scheduler —
// the virtual implementation of Scheduler. Actors schedule events at
// absolute virtual times; Step/Run/RunUntil/RunTask drain the event
// queue in time order. The zero value is ready to use at virtual time
// zero.
//
// Execution model: every scheduled callback (After, AfterFunc, Go, Join)
// runs as a *task* — a body executed on a worker goroutine that holds
// the clock's single virtual CPU. Exactly one task runs at a time; it
// yields only at scheduler calls (Sleep, SleepCtx, Join, Waiter.Wait) or
// by finishing, at which point the event loop resumes the next event in
// (time, schedule-order) sequence. Because interleaving points are
// explicit and the event order is a pure function of the schedule, a
// whole-stack run over the virtual clock is deterministic: same seed,
// same byte-identical trace — no matter the host, GOMAXPROCS, or run
// count.
//
// Steady state allocates nothing per event: a worker whose body finished
// parks in a bounded idle list and is re-armed with the next body, and
// events whose handle never leaves the clock are recycled through a free
// list (DESIGN.md §10). Idle workers exit when the outermost drive call
// (Step, Run, RunUntil, RunTask, ShardRunner.Run) returns, so a Clock
// that is dropped between drives leaves no goroutine behind.
//
// Clock methods are safe for concurrent use, but the blocking calls
// (Sleep, Join, Waiter.Wait) must come from scheduler tasks; calling
// them from an untracked goroutine panics rather than deadlocking.
type Clock struct {
	mu       sync.Mutex
	now      time.Duration
	events   eventStore // pending events; nil until first use (zero value)
	live     int        // pending events not canceled — Pending() in O(1)
	nextID   uint64
	executed uint64
	current  *task // task holding the virtual CPU (nil while the loop runs)
	tasks    int   // live tasks: started (or queued to start) and not finished

	free    []*event // fired recyclable events, at most maxFreeEvents
	idle    []*task  // workers parked between bodies, at most maxIdleWorkers
	driving int      // nesting depth of drive calls; idle workers exit at 0
}

const (
	// maxIdleWorkers bounds the workers kept parked between bodies. A
	// join burst can have tens of thousands of tasks asleep at once; when
	// they finish, all but this many exit instead of pinning their stacks
	// for the rest of the drive.
	maxIdleWorkers = 64
	// maxFreeEvents bounds the event free list the same way: a drained
	// burst of pending events is garbage, not a permanent reserve.
	maxFreeEvents = 1024
)

// NewClock returns a virtual clock at time zero, backed by the
// hierarchical timer-wheel event store (wheel.go).
func NewClock() *Clock { return &Clock{events: newWheelStore()} }

// storeLocked returns the event store, initializing the default wheel
// for zero-value Clocks. Called with c.mu held.
func (c *Clock) storeLocked() eventStore {
	if c.events == nil {
		c.events = newWheelStore()
	}
	return c.events
}

// task is one worker goroutine. The loop and the worker hand the virtual
// CPU back and forth over the two unbuffered channels: wake means "you
// run now", park means "I blocked or finished". fn is the next body,
// set by the loop before it wakes an idle worker.
type task struct {
	wake chan struct{}
	park chan struct{}
	fn   func()
}

// event is one scheduled action of the event loop. Its payload is a
// field, not a closure: a task body to start (fn), a parked task to
// resume (t), or a waiter whose deadline this is (w) — exactly one is
// set.
type event struct {
	at       time.Duration
	id       uint64 // tie-break so equal-time events run in schedule order
	fn       func()
	t        *task
	w        *clockWaiter
	canceled bool
	fired    bool
	// held marks an event whose pointer a Timer or Waiter keeps: it may
	// be asked about (Stop after fire, Wake after timeout) long after it
	// ran, so it is never recycled.
	held bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].id < q[j].id
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// scheduleLocked enqueues an event at absolute time at and returns it
// for the caller to set the payload. The event comes from the free list
// when one is there; callers that keep the pointer must set held.
func (c *Clock) scheduleLocked(at time.Duration) *event {
	if at < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, c.now))
	}
	var e *event
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		e = new(event)
	}
	c.nextID++
	e.at, e.id = at, c.nextID
	c.storeLocked().push(e)
	c.live++
	return e
}

// startLocked schedules body fn to start as a task at absolute time at.
func (c *Clock) startLocked(at time.Duration, fn func()) *event {
	c.tasks++
	e := c.scheduleLocked(at)
	e.fn = fn
	return e
}

// cancelLocked marks a pending event canceled; the store discards it
// lazily. Called with c.mu held.
func (c *Clock) cancelLocked(e *event) {
	e.canceled = true
	c.live--
}

// At schedules fn to run at absolute virtual time at. The callback runs
// as its own task. Scheduling in the past panics: that is always a
// protocol bug, not a recoverable condition.
func (c *Clock) At(at time.Duration, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.startLocked(at, fn)
}

// After schedules fn to run d after the current virtual time.
func (c *Clock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.startLocked(c.now+d, fn)
}

// AfterFunc implements Scheduler: After with a cancelable handle.
func (c *Clock) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.startLocked(c.now+d, fn)
	e.held = true
	return &clockTimer{c: c, e: e}
}

// clockTimer cancels a pending task event.
type clockTimer struct {
	c *Clock
	e *event
}

func (t *clockTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.e.canceled || t.e.fired {
		return false
	}
	t.c.cancelLocked(t.e)
	t.c.tasks-- // the task will never start
	return true
}

// Go implements Scheduler: fn runs as a task at the current virtual
// time, after the caller next yields.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.startLocked(c.now, fn)
}

// workerLocked returns a worker to run the next body: the most recently
// parked idle one, or a fresh goroutine when none is idle. Called with
// c.mu held.
func (c *Clock) workerLocked() *task {
	if n := len(c.idle); n > 0 {
		t := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		return t
	}
	t := &task{wake: make(chan struct{}), park: make(chan struct{})}
	go c.work(t)
	return t
}

// work is a worker goroutine: run the body it was armed with, park idle,
// repeat. It exits when the idle list is full, or when endDrive closes
// its wake channel (which reads as a wake with no body).
func (c *Clock) work(t *task) {
	for c.runNext(t) {
	}
}

// runNext runs the body t was armed with and gives the virtual CPU back,
// reporting whether t parked idle for another. The hand-back is deferred:
// a body that ends its goroutine (runtime.Goexit, i.e. t.Fatal) must
// still release the loop, and is not parked for reuse.
func (c *Clock) runNext(t *task) (parked bool) {
	<-t.wake
	fn := t.fn
	if fn == nil {
		return false
	}
	t.fn = nil
	returned := false
	defer func() {
		c.mu.Lock()
		c.current = nil
		c.tasks--
		if parked = returned && len(c.idle) < maxIdleWorkers; parked {
			c.idle = append(c.idle, t)
		}
		c.mu.Unlock()
		t.park <- struct{}{}
	}()
	fn()
	returned = true
	return
}

// beginDrive and endDrive bracket every call that runs the event loop.
// When the outermost one returns, nothing will wake an idle worker until
// the next drive — and if the Clock is dropped, nothing ever will — so
// the idle workers are told to exit.
func (c *Clock) beginDrive() {
	c.mu.Lock()
	c.driving++
	c.mu.Unlock()
}

func (c *Clock) endDrive() {
	c.mu.Lock()
	c.driving--
	var idle []*task
	if c.driving == 0 {
		idle, c.idle = c.idle, nil
	}
	c.mu.Unlock()
	for _, t := range idle {
		close(t.wake)
	}
}

// handoff gives the virtual CPU to t — which the caller has already made
// c.current — and blocks until t parks or finishes. Runs on the loop
// goroutine.
func (c *Clock) handoff(t *task) {
	t.wake <- struct{}{}
	<-t.park
}

// yieldLocked parks the calling task (which must hold the CPU) until a
// previously scheduled resume event hands it back. Called with c.mu
// held; returns with it released.
func (c *Clock) yieldLocked(t *task) {
	c.current = nil
	c.mu.Unlock()
	t.park <- struct{}{}
	<-t.wake
}

// mustCurrentLocked returns the running task or panics with a pointed
// message — raw goroutines must not block on the virtual clock.
func (c *Clock) mustCurrentLocked(op string) *task {
	if c.current == nil {
		c.mu.Unlock()
		panic("sim: " + op + " called outside a scheduler task (start the caller with Go/After/RunTask)")
	}
	return c.current
}

// Sleep implements Scheduler: the calling task parks for d of virtual
// time while the event loop keeps draining other events.
func (c *Clock) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	t := c.mustCurrentLocked("Sleep")
	c.scheduleLocked(c.now + d).t = t
	c.yieldLocked(t)
}

// SleepCtx implements Scheduler. Cancellation is observed at the wake
// instant: virtual sleeps cost nothing, and a deterministic wake point
// keeps the event order reproducible.
func (c *Clock) SleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Sleep(d)
	return ctx.Err()
}

// Join implements Scheduler: each fn runs as a task (serially, in
// argument order — virtual tasks never overlap) and Join returns when
// the last one finishes. limit is ignored under the virtual clock.
func (c *Clock) Join(_ int, fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	w := c.NewWaiter()
	var mu sync.Mutex
	remaining := len(fns)
	done := func() {
		mu.Lock()
		remaining--
		last := remaining == 0
		mu.Unlock()
		if last {
			w.Wake()
		}
	}
	for _, fn := range fns {
		fn := fn
		c.Go(func() {
			defer done() // also when fn exits its goroutine
			fn()
		})
	}
	w.Wait(-1)
}

// NewWaiter implements Scheduler.
func (c *Clock) NewWaiter() Waiter { return &clockWaiter{c: c} }

// clockWaiter parks one task until woken or timed out; the first of
// (Wake, deadline) wins deterministically by event order.
type clockWaiter struct {
	c        *Clock
	woken    bool
	timedOut bool
	waiting  *task
	deadline *event
}

func (w *clockWaiter) Wake() {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.woken || w.timedOut {
		return
	}
	w.woken = true
	t := w.waiting
	w.waiting = nil
	if t == nil {
		return // Wake before Wait: remembered by the woken flag
	}
	if w.deadline != nil {
		c.cancelLocked(w.deadline)
		w.deadline = nil
	}
	c.scheduleLocked(c.now).t = t
}

func (w *clockWaiter) Wait(timeout time.Duration) bool {
	c := w.c
	c.mu.Lock()
	if w.woken {
		c.mu.Unlock()
		return true
	}
	if w.timedOut {
		c.mu.Unlock()
		return false
	}
	t := c.mustCurrentLocked("Waiter.Wait")
	w.waiting = t
	if timeout >= 0 {
		e := c.scheduleLocked(c.now + timeout)
		e.w, e.held = w, true
		w.deadline = e
	}
	c.yieldLocked(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	return w.woken
}

// timeout fires the waiter's deadline: it loses to an earlier Wake by
// event order. Runs on the loop goroutine.
func (w *clockWaiter) timeout() {
	c := w.c
	c.mu.Lock()
	t := w.waiting
	w.waiting = nil
	w.timedOut = true
	w.deadline = nil
	c.current = t
	c.mu.Unlock()
	if t != nil {
		c.handoff(t)
	}
}

// Step runs the earliest pending event, advancing the clock to its time
// and blocking until the stack quiesces again (the event's task parked
// or finished). It reports whether an event ran.
func (c *Clock) Step() bool {
	c.beginDrive()
	defer c.endDrive()
	return c.step()
}

// step is Step inside an open drive.
func (c *Clock) step() bool {
	c.mu.Lock()
	if c.current != nil {
		c.mu.Unlock()
		panic("sim: Step while a task holds the virtual CPU")
	}
	e := c.storeLocked().pop()
	if e == nil {
		c.mu.Unlock()
		return false
	}
	c.now = e.at
	c.live--
	c.executed++
	fn, t, w := e.fn, e.t, e.w
	if e.held {
		e.fired = true
		e.fn, e.t, e.w = nil, nil, nil // the handle outlives the payload; do not pin it
	} else {
		*e = event{}
		if len(c.free) < maxFreeEvents {
			c.free = append(c.free, e)
		}
	}
	if fn != nil {
		t = c.workerLocked()
		t.fn = fn
	}
	c.current = t
	c.mu.Unlock()
	if t != nil {
		c.handoff(t)
	} else {
		w.timeout()
	}
	return true
}

// Run drains all pending events, including events scheduled by events.
// It returns the number of events executed, and panics if tasks remain
// parked with nothing left to wake them — a deadlock in the simulated
// protocol.
func (c *Clock) Run() int {
	c.beginDrive()
	defer c.endDrive()
	n := 0
	for c.step() {
		n++
	}
	c.mu.Lock()
	stuck := c.tasks
	c.mu.Unlock()
	if stuck > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d task(s) parked with an empty event queue", stuck))
	}
	return n
}

// RunTask runs fn as a task at the current virtual time and drives the
// event loop until fn returns, leaving any later-scheduled events
// unrun (background loops simply stop ticking when the workload ends).
// It returns the number of events executed.
func (c *Clock) RunTask(fn func()) int {
	c.beginDrive()
	defer c.endDrive()
	done := false
	c.Go(func() {
		defer func() { done = true }() // also when fn exits its goroutine
		fn()
	})
	n := 0
	for !done {
		if !c.step() {
			panic("sim: RunTask: root task parked with an empty event queue (deadlock)")
		}
		n++
	}
	return n
}

// RunUntil drains events with time <= deadline, advancing the clock to
// exactly deadline afterwards. It returns the number of events executed.
func (c *Clock) RunUntil(deadline time.Duration) int {
	c.beginDrive()
	defer c.endDrive()
	n := 0
	for {
		c.mu.Lock()
		at, ok := c.storeLocked().next()
		if !ok || at > deadline {
			if c.now < deadline {
				c.now = deadline
			}
			c.mu.Unlock()
			return n
		}
		c.mu.Unlock()
		if !c.step() {
			return n
		}
		n++
	}
}

// Pending returns the number of scheduled events not yet run.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// Executed returns the total number of events this clock has run — the
// scale harness's events/sec numerator.
func (c *Clock) Executed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.executed
}

// NextEventTime returns the earliest pending event's virtual time, or
// false when the queue is empty. The sharded runner uses it to decide
// whether a shard has work inside the current lookahead window.
func (c *Clock) NextEventTime() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storeLocked().next()
}

// Interface compliance.
var _ Scheduler = (*Clock)(nil)
