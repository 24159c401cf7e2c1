package sim

// Wall is the real-time Scheduler adapter. It is the ONLY file in
// internal/ permitted to call the time package's scheduling and clock
// functions (the schedtime analyzer in asaplint enforces this): every
// other layer takes a Scheduler, so the same protocol code runs on the
// virtual clock in simulation and on this adapter in the live daemon.

import (
	"context"
	"sync"
	"time"
)

// Wall implements Scheduler over the time package, reporting time as an
// offset from the instant the adapter was created. Tasks are plain
// goroutines; unlike the virtual clock they genuinely overlap.
type Wall struct {
	start time.Time
}

// NewWall returns a wall scheduler anchored at the current instant.
func NewWall() *Wall { return &Wall{start: time.Now()} }

// wall is the one shared real-time scheduler, anchored when the program
// starts.
var wall = NewWall()

// OrWall returns s, or the shared real-time Wall when s is nil: what a
// component built without a Scheduler runs on.
func OrWall(s Scheduler) Scheduler {
	if s != nil {
		return s
	}
	return wall
}

// Now implements Scheduler.
func (w *Wall) Now() time.Duration { return time.Since(w.start) }

// Sleep implements Scheduler.
func (w *Wall) Sleep(d time.Duration) { time.Sleep(d) }

// SleepCtx implements Scheduler: the sleep is interrupted as soon as ctx
// is done.
func (w *Wall) SleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// After implements Scheduler.
func (w *Wall) After(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// AfterFunc implements Scheduler.
func (w *Wall) AfterFunc(d time.Duration, fn func()) Timer {
	return wallTimer{t: time.AfterFunc(d, fn)}
}

type wallTimer struct{ t *time.Timer }

func (t wallTimer) Stop() bool { return t.t.Stop() }

// Go implements Scheduler.
func (w *Wall) Go(fn func()) { go fn() }

// Join implements Scheduler: fns run on real goroutines, at most limit
// at a time when limit > 0, and Join returns when all have finished.
func (w *Wall) Join(limit int, fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	var sem chan struct{}
	if limit > 0 && limit < len(fns) {
		sem = make(chan struct{}, limit)
	}
	var wg sync.WaitGroup
	for _, fn := range fns {
		fn := fn
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			fn()
		}()
	}
	wg.Wait()
}

// NewWaiter implements Scheduler.
func (w *Wall) NewWaiter() Waiter {
	return &wallWaiter{ch: make(chan struct{}, 1)}
}

// wallWaiter's Wake leaves one token in ch, under mu, only in a round
// that has no outcome yet, so the send never blocks. The flags answer
// every later Wait of the round; Rearm drains a token no Wait took.
type wallWaiter struct {
	mu       sync.Mutex
	woken    bool
	timedOut bool
	ch       chan struct{}
}

func (w *wallWaiter) Wake() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.woken || w.timedOut {
		return
	}
	w.woken = true
	w.ch <- struct{}{}
}

func (w *wallWaiter) Wait(timeout time.Duration) bool {
	w.mu.Lock()
	woken, timedOut := w.woken, w.timedOut
	w.mu.Unlock()
	switch {
	case woken:
		return true
	case timedOut:
		return false
	case timeout < 0:
		<-w.ch
		return true
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return true
	case <-t.C:
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// A Wake racing the deadline still counts as woken.
	w.timedOut = !w.woken
	return w.woken
}

func (w *wallWaiter) Rearm() {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-w.ch:
	default:
	}
	w.woken, w.timedOut = false, false
}

// Interface compliance.
var _ Scheduler = (*Wall)(nil)
