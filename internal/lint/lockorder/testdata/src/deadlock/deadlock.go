// Package deadlock nests two locks in opposite orders across two
// functions: the classic AB/BA deadlock, and a CD/DC pair whose forward
// side nests only after an early-return guard.
package deadlock

import "sync"

type A struct {
	mu sync.Mutex
}

type B struct {
	mu sync.RWMutex
}

var (
	a A
	b B
)

// Forward locks A then B.
func Forward() {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.RLock() // want "potential deadlock: lock-order cycle deadlock.A.mu -> deadlock.B.mu -> deadlock.A.mu"
	defer b.mu.RUnlock()
}

// Backward locks B then A: the reversed pair.
func Backward() {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}

// C and D are a second pair whose forward side releases C on an
// early-return guard before nesting D on the fall-through path.
type C struct {
	mu sync.Mutex
}

type D struct {
	mu sync.Mutex
}

var (
	c C
	d D
)

func GuardedForward(stop bool) {
	c.mu.Lock()
	if stop {
		c.mu.Unlock()
		return
	}
	d.mu.Lock() // want "potential deadlock: lock-order cycle deadlock.C.mu -> deadlock.D.mu -> deadlock.C.mu"
	d.mu.Unlock()
	c.mu.Unlock()
}

func GuardedBackward() {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}
