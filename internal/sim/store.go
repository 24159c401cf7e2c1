package sim

import "time"

// eventStore holds a Clock's pending events in (time, schedule-id) order.
// The Clock runs on wheelStore (wheel.go), the hierarchical timer wheel;
// the tests keep heapStore, the original binary heap, as the executable
// reference. Both deliver the exact same total order — the differential
// tests in wheel_test.go push millions of randomized schedules through
// the pair and require byte-identical pop sequences.
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
