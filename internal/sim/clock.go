package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
// by finishing, at which point the next event in (time, schedule-order)
// sequence runs. Because interleaving points are explicit and the event
// order is a pure function of the schedule, a whole-stack run over the
// virtual clock is deterministic: same seed, same byte-identical trace —
// no matter the host, GOMAXPROCS, or run count. The CPU passes from task
// to task: whichever goroutine gives it up fires the next event itself
// and wakes the task that event names, and the goroutine that called the
// drive only waits for the drive's stopping rule to end it (DESIGN.md
// §10).
//
// Steady state allocates nothing per event: a worker whose body finished
// parks in a bounded idle list and is re-armed with the next body, events
// whose handle never leaves the clock are recycled through a free list,
// and an event a handle keeps lives inside that handle (DESIGN.md §10).
// Idle workers exit when the outermost drive call (Step, Run, RunUntil,
// RunTask, ShardRunner.Run) returns, so a Clock that is dropped between
// drives leaves no goroutine behind.
//
// Clock methods are safe for concurrent use, but the blocking calls
// (Sleep, Join, Waiter.Wait) must come from scheduler tasks; calling
// them from an untracked goroutine panics rather than deadlocking.
type Clock struct {
	mu sync.Mutex
	// now is the virtual time, written only under mu (passLocked and
	// RunUntil) and read without it by Now: the voice path asks for the
	// time several times per packet.
	now      atomic.Int64
	events   eventStore // pending events; nil until first use (zero value)
	nextID   uint64
	executed uint64
	current  *task // task holding the virtual CPU (nil between tasks and drives)
	tasks    int   // live tasks: started (or queued to start) and not finished

	free    FreeList[*event] // fired recyclable events, at most maxFreeEvents
	idle    FreeList[*task]  // workers parked between bodies, at most max(maxIdleWorkers, widest)
	driving int              // nesting depth of drive calls; idle workers exit at 0
	// widest is the most bodies one Join of this drive started at once;
	// that many workers may park, stacks grown, for the next Join.
	widest int

	rule driveRule     // stopping rule of the drive in progress
	done chan struct{} // the drive is over; sent by the task that ended it
}

// driveRule is the stopping rule of one drive: it fires events while
// left is not zero, the root task (RunTask) has not returned, and — when
// bounded (RunUntil) — the next event is at or before until.
type driveRule struct {
	left    int   // events the drive may still fire; negative: no limit
	root    *bool // set once the RunTask root has returned; nil otherwise
	bounded bool
	until   time.Duration
	fired   int // events fired so far
}

const (
	// maxIdleWorkers bounds the workers kept parked between bodies,
	// unless a Join of the drive was wider (widest). A burst of Go calls
	// can have tens of thousands of tasks asleep at once; when they
	// finish, all but this many exit instead of pinning their stacks for
	// the rest of the drive.
	maxIdleWorkers = 64
	// maxFreeEvents bounds the event free list the same way: a drained
	// burst of pending events is garbage, not a permanent reserve.
	maxFreeEvents = 1024
)

// NewClock returns a virtual clock at time zero.
func NewClock() *Clock { return &Clock{} }

// storeLocked returns the event store, making the event heap on first
// use; the heap hands every canceled event it drops back to the clock.
// Called with c.mu held.
func (c *Clock) storeLocked() eventStore {
	if c.events == nil {
		c.events = &eventHeap{discard: c.discardLocked}
	}
	return c.events
}

// discardLocked takes back a canceled event the store has dropped: a
// recyclable one (a woken waiter's deadline) goes to the free list, a
// held one stays its handle's. Called with c.mu held.
func (c *Clock) discardLocked(e *event) {
	if !e.held {
		*e = event{}
		c.free.Put(e, maxFreeEvents)
	}
}

// task is one worker goroutine. A task that passes the CPU to another
// sends on the other's wake channel ("you run now"); it has room for one
// token, so the sender never waits for the receiver. fn is the next
// body, and join the waiter of the Join waiting for it (nil for none),
// both set under c.mu by whoever hands the worker its body.
type task struct {
	wake chan struct{}
	fn   func()
	join *clockWaiter
}

// event is one scheduled action of the clock. Its payload is a
// field, not a closure: a task body to start (fn, with w the waiter of
// the Join waiting for it, if any), a parked task to resume (t), or a
// waiter whose deadline this is (w alone).
type event struct {
	at       time.Duration
	id       uint64 // tie-break so equal-time events run in schedule order
	fn       func()
	t        *task
	w        *clockWaiter
	canceled bool
	fired    bool
	// held marks an event embedded in a Timer: it may be asked about
	// (Stop after fire) long after it ran, and its memory is the
	// handle's, so it is never recycled.
	held bool
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// scheduleLocked enqueues a recyclable event at absolute time at and
// returns it for the caller to set the payload. The event comes from the
// free list when one is there; a caller that keeps the pointer must
// embed its own event and use pushLocked instead.
func (c *Clock) scheduleLocked(at time.Duration) *event {
	e, ok := c.free.Get()
	if !ok {
		e = new(event)
	}
	c.pushLocked(e, at)
	return e
}

// pushLocked enqueues e, whose payload the caller sets, at absolute time
// at.
func (c *Clock) pushLocked(e *event, at time.Duration) {
	if now := c.Now(); at < now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, now))
	}
	c.nextID++
	e.at, e.id = at, c.nextID
	c.storeLocked().push(e)
}

// startLocked schedules body fn to start as a task at absolute time at.
func (c *Clock) startLocked(at time.Duration, fn func()) {
	c.tasks++
	c.scheduleLocked(at).fn = fn
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
	c.startLocked(c.Now()+d, fn)
}

// AfterFunc implements Scheduler: After with a cancelable handle. The
// handle and its event are one allocation.
func (c *Clock) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	t := &clockTimer{c: c, e: event{fn: fn, held: true}}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tasks++
	c.pushLocked(&t.e, c.Now()+d)
	return t
}

// clockTimer cancels a pending task event: its own, embedded.
type clockTimer struct {
	c *Clock
	e event
}

func (t *clockTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.e.canceled || t.e.fired {
		return false
	}
	t.e.canceled = true // the store drops it lazily
	t.c.tasks--         // the task will never start
	return true
}

// Go implements Scheduler: fn runs as a task at the current virtual
// time, after the caller next yields.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.startLocked(c.Now(), fn)
}

// workerLocked returns a worker for body fn, which the Join of waiter j
// (nil for none) waits for: the most recently parked idle one, or a
// fresh one whose goroutine the caller starts (fresh) once it has
// released c.mu. Called with c.mu held.
func (c *Clock) workerLocked(fn func(), j *clockWaiter) (t *task, fresh bool) {
	t, ok := c.idle.Get()
	if !ok {
		t, fresh = &task{wake: make(chan struct{}, 1)}, true
	}
	t.fn, t.join = fn, j
	return t, fresh
}

// work is a worker goroutine: run the body it holds, park idle, repeat.
// It exits when the idle list was full, or when endDrive closes its wake
// channel (which reads as a wake with no body).
func (c *Clock) work(t *task) {
	for c.run(t) {
	}
}

// run runs the body t holds and passes the virtual CPU on, reporting
// whether t holds a next body — one it took from the idle list itself,
// or one it was woken with. The pass is deferred: a body that ends its
// goroutine (runtime.Goexit, i.e. t.Fatal) must still pass the CPU on,
// and is not parked for reuse.
func (c *Clock) run(t *task) (again bool) {
	fn, j := t.fn, t.join
	t.fn, t.join = nil, nil
	returned := false
	defer func() {
		c.mu.Lock()
		if j != nil {
			j.joinDoneLocked() // also when fn exited its goroutine
		}
		c.current = nil
		c.tasks--
		parked := returned && c.idle.Put(t, max(maxIdleWorkers, c.widest))
		if c.passLocked(t) != t && parked {
			<-t.wake
		}
		again = parked && t.fn != nil
	}()
	fn()
	returned = true
	return
}

// beginDrive and endDrive bracket every call that drives the clock.
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
	defer c.mu.Unlock()
	c.driving--
	if c.driving > 0 {
		return
	}
	c.widest = 0
	// Closing a channel never blocks, so the list drains in place and
	// keeps its backing array for the next drive.
	for t, ok := c.idle.Get(); ok; t, ok = c.idle.Get() {
		close(t.wake)
	}
}

// drive runs events under stopping rule r and returns how many fired.
// The calling goroutine, which must not be a task, passes the CPU on
// like a task that yields; if it reaches a task, the caller blocks until
// whichever goroutine ends the drive says so.
func (c *Clock) drive(r driveRule) int {
	c.mu.Lock()
	if c.current != nil {
		c.mu.Unlock()
		panic("sim: drive while a task holds the virtual CPU")
	}
	if c.done == nil {
		c.done = make(chan struct{}, 1)
	}
	c.rule = r
	if c.passLocked(nil) != nil {
		<-c.done
	}
	c.mu.Lock()
	n := c.rule.fired
	c.rule = driveRule{}
	c.mu.Unlock()
	return n
}

// passLocked gives up the virtual CPU held by self — a task that yielded
// or finished, or nil for the goroutine starting a drive — and passes it
// on. While the drive's rule allows, it pops the next event in (time,
// schedule-id) order and fires it: a body goes to a worker, a resume to
// its task, and a waiter deadline fires right here and resumes the
// waiting task. It returns the task now holding the CPU: self when that
// is self's own resume or a body self took from the idle list (self
// carries on without a goroutine switch), another task it has woken, or
// nil when the rule ended the drive. Called with c.mu held; returns with
// it released.
func (c *Clock) passLocked(self *task) *task {
	r := &c.rule
	for r.left != 0 && (r.root == nil || !*r.root) {
		store := c.storeLocked()
		if r.bounded {
			if at, ok := store.next(); !ok || at > r.until {
				break
			}
		}
		e := store.pop()
		if e == nil {
			break
		}
		r.left--
		r.fired++
		c.now.Store(int64(e.at))
		c.executed++
		fn, t, w := e.fn, e.t, e.w
		if e.held {
			e.fired = true
			e.fn = nil // the handle outlives the payload; do not pin it
		} else {
			*e = event{}
			c.free.Put(e, maxFreeEvents)
		}
		fresh := false
		switch {
		case fn != nil:
			t, fresh = c.workerLocked(fn, w)
		case w != nil:
			// The waiter's deadline: it lost to no earlier Wake, which
			// would have canceled it and detached it from the waiter.
			t = w.waiting
			w.waiting, w.timedOut, w.dl = nil, true, nil
			if t == nil {
				continue
			}
		}
		c.current = t
		c.mu.Unlock()
		switch {
		case t == self:
		case fresh:
			go c.work(t)
		default:
			t.wake <- struct{}{}
		}
		return t
	}
	c.mu.Unlock()
	if self != nil {
		c.done <- struct{}{}
	}
	return nil
}

// yieldLocked parks the calling task (which must hold the CPU) until a
// previously scheduled resume event hands it back, passing the CPU on
// meanwhile; when that resume is the next event, the task carries on at
// once. Called with c.mu held; returns with it released.
func (c *Clock) yieldLocked(t *task) {
	c.current = nil
	if c.passLocked(t) != t {
		<-t.wake
	}
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
// time while other events run.
func (c *Clock) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	t := c.mustCurrentLocked("Sleep")
	c.scheduleLocked(c.Now() + d).t = t
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
// the last one finishes. limit is ignored under the virtual clock. The
// tasks' events carry the caller's waiter, which counts them down, so
// it is the one allocation. Its workers park for the drive's next Join
// (Clock.widest).
func (c *Clock) Join(_ int, fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	w := &clockWaiter{c: c, joining: len(fns)}
	c.mu.Lock()
	c.widest = max(c.widest, len(fns))
	for _, fn := range fns {
		c.tasks++
		e := c.scheduleLocked(c.Now())
		e.fn, e.w = fn, w
	}
	c.mu.Unlock()
	w.Wait(-1)
}

// joinDoneLocked counts down one finished task of w's Join; the last
// wakes the caller. Called with c.mu held.
func (w *clockWaiter) joinDoneLocked() {
	if w.joining--; w.joining == 0 {
		w.wakeLocked()
	}
}

// NewWaiter implements Scheduler.
func (c *Clock) NewWaiter() Waiter { return &clockWaiter{c: c} }

// clockWaiter parks one task until woken or timed out; the first of
// (Wake, deadline) wins deterministically by event order. Its deadline
// is an ordinary recycled event that the waiter holds only while it is
// pending: the deadline detaches it as it fires, and Wake as it cancels
// it. The store drops a canceled event lazily, so a Wake leaves the old
// deadline in the store until its time comes; detached, it can neither
// fire into a re-armed Wait nor be scheduled twice, and the store hands
// it back to the free list when it drops it (discardLocked).
type clockWaiter struct {
	c        *Clock
	woken    bool
	timedOut bool
	waiting  *task
	dl       *event // the pending Wait(timeout) deadline, nil when none
	joining  int    // a Join's waiter: tasks of the Join still running
}

func (w *clockWaiter) Wake() {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	w.wakeLocked()
}

// wakeLocked is Wake with c.mu held.
func (w *clockWaiter) wakeLocked() {
	c := w.c
	if w.woken || w.timedOut {
		return
	}
	w.woken = true
	t := w.waiting
	w.waiting = nil
	if t == nil {
		return // Wake before Wait: remembered by the woken flag
	}
	if w.dl != nil {
		w.dl.canceled = true
		w.dl = nil
	}
	c.scheduleLocked(c.Now()).t = t
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
		w.dl = c.scheduleLocked(c.Now() + timeout)
		w.dl.w = w
	}
	c.yieldLocked(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	return w.woken
}

func (w *clockWaiter) Rearm() {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.waiting != nil {
		panic("sim: Waiter.Rearm while a task is parked in Wait")
	}
	w.woken, w.timedOut = false, false
}

// Step runs the earliest pending event, advancing the clock to its time
// and blocking until the stack quiesces again (the event's task parked
// or finished). It reports whether an event ran.
func (c *Clock) Step() bool {
	c.beginDrive()
	defer c.endDrive()
	return c.drive(driveRule{left: 1}) == 1
}

// Run drains all pending events, including events scheduled by events.
// It returns the number of events executed, and panics if tasks remain
// parked with nothing left to wake them — a deadlock in the simulated
// protocol.
func (c *Clock) Run() int {
	c.beginDrive()
	defer c.endDrive()
	n := c.drive(driveRule{left: -1})
	c.mu.Lock()
	stuck := c.tasks
	c.mu.Unlock()
	if stuck > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d task(s) parked with an empty event queue", stuck))
	}
	return n
}

// RunTask runs fn as a task at the current virtual time and drives the
// clock until fn returns, leaving any later-scheduled events
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
	n := c.drive(driveRule{left: -1, root: &done})
	if !done {
		panic("sim: RunTask: root task parked with an empty event queue (deadlock)")
	}
	return n
}

// RunUntil drains events with time <= deadline, advancing the clock to
// exactly deadline afterwards. It returns the number of events executed.
func (c *Clock) RunUntil(deadline time.Duration) int {
	c.beginDrive()
	defer c.endDrive()
	n := c.drive(driveRule{left: -1, bounded: true, until: deadline})
	c.mu.Lock()
	if c.Now() < deadline {
		c.now.Store(int64(deadline))
	}
	c.mu.Unlock()
	return n
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
