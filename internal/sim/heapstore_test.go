package sim

import (
	"container/heap"
	"time"
)

// heapStore is the reference event store: container/heap over an
// eventQueue ordered by (at, id). It lives in the tests because it is the
// executable specification the clock's eventHeap is differentially tested
// against (store_test.go), and nothing else.
type heapStore struct {
	q eventQueue
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
