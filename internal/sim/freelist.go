package sim

// FreeList is a bounded LIFO stack of values kept for reuse. The clock's
// fired events and idle workers, core.System's scratches, transport's
// in-flight datagram records and udp's encode buffers each live on one.
//
// It is not a sync.Pool, for two reasons. A collection empties a Pool,
// so the first Gets after every GC allocate again, and the benchmark
// collects before every repetition. A Pool also keeps one cache per P:
// a value put back on one P is missed by a Get on another, so how many
// values a run allocated depended on scheduling. A FreeList survives
// collections and hands values back in the order they were put, so a
// virtual-clock run allocates the same values on every run. The bound
// each Put is given keeps a drained burst from becoming a permanent
// reserve.
//
// A FreeList takes no lock: its owner guards it with a lock it already
// holds. The zero value is an empty list.
type FreeList[T any] struct {
	items []T
}

// Get pops the value put most recently, or reports false when the list
// is empty and the caller makes a fresh one. The vacated slot is
// zeroed, so the list keeps nothing it handed out reachable.
func (l *FreeList[T]) Get() (v T, ok bool) {
	n := len(l.items)
	if n == 0 {
		return v, false
	}
	v = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return v, true
}

// Put pushes v unless the list already holds bound values, and reports
// whether it kept v.
func (l *FreeList[T]) Put(v T, bound int) bool {
	if len(l.items) >= bound {
		return false
	}
	l.items = append(l.items, v)
	return true
}

// Len returns how many values the list holds.
func (l *FreeList[T]) Len() int { return len(l.items) }

// Any reports whether f holds for a value the list holds.
func (l *FreeList[T]) Any(f func(T) bool) bool {
	for _, v := range l.items {
		if f(v) {
			return true
		}
	}
	return false
}
