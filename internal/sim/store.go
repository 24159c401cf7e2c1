package sim

import "time"

// eventStore holds a Clock's pending events in (time, schedule-id) order.
// The Clock runs on eventHeap; the tests keep heapStore, a container/heap
// queue, as the reference the differential tests in store_test.go push
// randomized schedules through beside it, requiring identical pop
// sequences.
//
// Stores are not safe for concurrent use; the Clock serializes access
// under its mutex. Canceled events are discarded lazily whenever a store
// operation encounters them; callers never see them.
type eventStore interface {
	// push inserts a scheduled event. The event's at and id are set and
	// id is strictly greater than that of any previously pushed event.
	push(e *event)
	// pop removes and returns the earliest live event, or nil when none
	// remain.
	pop() *event
	// next returns the earliest live event's time without removing it.
	next() (time.Duration, bool)
}

// heapKeepCap bounds the backing array an empty eventHeap keeps: a
// drained burst of pending events is garbage, not a permanent reserve.
const heapKeepCap = 1024

// eventHeap is the Clock's event store: a binary min-heap ordered by
// (at, id). Each entry carries its keys inline, so sifting compares
// without loading the events.
type eventHeap struct {
	q []heapEntry
	// discard takes each canceled event the heap drops.
	discard func(*event)
}

type heapEntry struct {
	at time.Duration
	id uint64
	e  *event
}

func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

func (h *eventHeap) push(e *event) {
	x := heapEntry{e.at, e.id, e}
	h.q = append(h.q, x)
	q := h.q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// min returns the earliest live event without removing it, handing the
// canceled events ahead of it to discard; nil when none remain.
func (h *eventHeap) min() *event {
	for len(h.q) > 0 {
		e := h.q[0].e
		if !e.canceled {
			return e
		}
		h.removeMin()
		h.discard(e)
	}
	return nil
}

func (h *eventHeap) pop() *event {
	e := h.min()
	if e != nil {
		h.removeMin()
	}
	return e
}

func (h *eventHeap) next() (time.Duration, bool) {
	if e := h.min(); e != nil {
		return e.at, true
	}
	return 0, false
}

// removeMin drops the root. The vacated last slot is cleared, so a fired
// event is not kept reachable from the heap, and a drained heap lets a
// burst-sized backing array go.
func (h *eventHeap) removeMin() {
	q := h.q
	n := len(q) - 1
	x := q[n]
	q[n] = heapEntry{}
	q = q[:n]
	h.q = q
	if n == 0 {
		if cap(q) > heapKeepCap {
			h.q = nil
		}
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].less(q[c]) {
			c = r
		}
		if !q[c].less(x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
}
