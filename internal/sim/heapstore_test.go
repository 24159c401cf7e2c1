package sim

import (
	"container/heap"
	"time"
)

// heapStore is the reference event store: one binary heap ordered by
// (at, id). Correct at any scale, but every operation costs O(log n) in
// the total pending-event count — the bottleneck the timer wheel removes
// for million-node deployments. It lives in the tests because it is the
// executable specification the wheel is differentially tested against
// (wheel_test.go), and nothing else.
type heapStore struct {
	q eventQueue
}

func (h *heapStore) push(e *event) { heap.Push(&h.q, e) }

func (h *heapStore) pop() *event {
	for len(h.q) > 0 {
		e := heap.Pop(&h.q).(*event)
		if !e.canceled {
			return e
		}
	}
	return nil
}

func (h *heapStore) next() (time.Duration, bool) {
	for len(h.q) > 0 {
		if h.q[0].canceled {
			heap.Pop(&h.q)
			continue
		}
		return h.q[0].at, true
	}
	return 0, false
}

// NewReferenceClock returns a virtual clock backed by heapStore: for any
// schedule, it and NewClock must produce byte-identical event orders.
func NewReferenceClock() *Clock { return &Clock{events: &heapStore{}} }
