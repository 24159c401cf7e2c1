package sim

import (
	"context"
	"time"
)

// Scheduler is the single time source for the whole stack. Every layer
// that needs to read the clock, sleep, or arm a timer takes a Scheduler
// instead of touching the time package, so the same protocol code runs
// in two modes:
//
//   - *Clock (virtual): time is an event queue. Sleeps and timers cost
//     nothing in wall-clock terms, tasks interleave in a deterministic
//     order, and a five-minute experiment finishes in milliseconds with
//     byte-identical output for a given seed.
//   - *Wall (real): the adapter over the time package used by the live
//     daemon. It is the only place in internal/ allowed to call
//     time.Sleep / time.AfterFunc / time.NewTimer / time.Now (enforced
//     by the schedtime analyzer in asaplint; `make lint`).
//
// Times are expressed as offsets from the scheduler's origin
// (time.Duration), never as absolute time.Time values: durations compare
// identically in both modes and serialize deterministically.
type Scheduler interface {
	// Now returns the current time as an offset from the scheduler's
	// origin.
	Now() time.Duration

	// Sleep pauses the caller for d. Under the virtual clock the caller
	// must be a scheduler task (started via Go, After, AfterFunc, Join,
	// or Clock.RunTask); the task parks and the event loop carries on.
	Sleep(d time.Duration)

	// SleepCtx sleeps d, returning early with ctx.Err() when ctx is
	// already done. The virtual clock checks cancellation at wake rather
	// than interrupting mid-sleep — virtual sleeps are free, and waking
	// at the scheduled instant keeps the event order deterministic.
	SleepCtx(ctx context.Context, d time.Duration) error

	// After schedules fn to run d from now. The callback runs as its own
	// scheduler task, so it may itself Sleep, Join, or Wait. The virtual
	// clock adds no allocation of its own (the event record and the
	// worker that runs fn are reused), so a hot path that passes a func
	// value it already holds — a method value bound once, as the pooled
	// in-flight datagrams of transport.Mem do — schedules for free; a
	// closure built per call is then the only cost left.
	After(d time.Duration, fn func())

	// AfterFunc is After with a cancelable handle.
	AfterFunc(d time.Duration, fn func()) Timer

	// Go runs fn as a concurrent scheduler task. Under the virtual clock
	// tasks execute one at a time, interleaving only at scheduler calls,
	// in event-queue order — which makes whole-stack runs deterministic.
	Go(fn func())

	// Join runs every fn as a task and returns when all have completed.
	// limit bounds wall-mode concurrency (0 = unbounded); the virtual
	// clock ignores it, since virtual tasks serialize anyway. A single
	// fn may run inline on the caller.
	Join(limit int, fns ...func())

	// NewWaiter returns a one-shot wakeup cell for first-of races
	// (result vs timeout). Wake before Wait is remembered, extra Wakes
	// are no-ops.
	NewWaiter() Waiter
}

// Timer is a cancelable scheduled callback.
type Timer interface {
	// Stop cancels the pending callback; it reports whether the timer
	// was still pending (false when it already fired or was stopped).
	Stop() bool
}

// Waiter is a one-shot rendezvous: one task Waits, any task Wakes.
type Waiter interface {
	// Wake unparks the waiter. A Wake that arrives before Wait is not
	// lost; Wakes after the first (or after a timeout) are no-ops.
	Wake()
	// Wait parks the calling task until Wake or, when timeout >= 0, the
	// deadline. It reports whether the waiter was woken (false = timed
	// out). Wait may be called at most once.
	Wait(timeout time.Duration) bool
}
