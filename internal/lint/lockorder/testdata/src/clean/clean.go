// Package clean nests locks in one consistent global order and
// releases before crossing back: no cycles.
package clean

import "sync"

type Outer struct {
	mu sync.Mutex
}

type Inner struct {
	mu sync.Mutex
}

var (
	outer Outer
	inner Inner
)

// Nested always takes outer before inner.
func Nested() {
	outer.mu.Lock()
	defer outer.mu.Unlock()
	inner.mu.Lock()
	inner.mu.Unlock()
}

// AlsoNested takes the same order through a helper.
func AlsoNested() {
	outer.mu.Lock()
	touchInner()
	outer.mu.Unlock()
}

func touchInner() {
	inner.mu.Lock()
	defer inner.mu.Unlock()
}

// Sequential releases inner before re-taking outer: source order is
// inner then outer, but they are never held together.
func Sequential() {
	inner.mu.Lock()
	inner.mu.Unlock()
	outer.mu.Lock()
	outer.mu.Unlock()
}

// EarlyOut holds inner to the end of the branch that returns; the
// fall-through path takes outer alone, so inner -> outer is no edge.
func EarlyOut(fast bool) {
	if fast {
		inner.mu.Lock()
		defer inner.mu.Unlock()
		return
	}
	outer.mu.Lock()
	outer.mu.Unlock()
}

// Shards locks two instances of the same type in index order; a
// self-edge on one lock key is not a reportable cycle.
type Shard struct {
	mu sync.Mutex
}

func LockPair(s1, s2 *Shard) {
	s1.mu.Lock()
	s2.mu.Lock()
	s2.mu.Unlock()
	s1.mu.Unlock()
}
