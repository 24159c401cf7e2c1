package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The clock's eventHeap is only correct if it is indistinguishable from
// the reference heapStore: for any schedule, both stores (and both
// clocks built on them) must produce byte-identical event orders. These
// tests push a million randomized schedules through the pair —
// including same-time AfterFunc chains, cancellations, and pushes behind
// the last pop as after a RunUntil — and fail on the first divergence.

// diffSize returns the schedule count: a full million normally, scaled
// down under -short so tier-1 `go test ./...` stays fast.
func diffSize(full int) int {
	if testing.Short() {
		return full / 20
	}
	return full
}

// discardLog is an eventHeap's discard hook for the store tests: it
// fails on an event handed over twice or handed over uncanceled.
type discardLog map[*event]bool

func (l discardLog) hook(t *testing.T) func(*event) {
	return func(e *event) {
		if !e.canceled || l[e] {
			t.Fatalf("discard got %v: canceled %v, already discarded %v", evString(e), e.canceled, l[e])
		}
		l[e] = true
	}
}

// TestStoreDifferential drives heapStore and eventHeap with one
// identical randomized op stream — pushes from exact ties to minutes
// out, pops, peeks, and cancellations — and requires identical pop
// sequences event-for-event. The slot a pop vacates must be cleared,
// every canceled event must reach the heap's discard hook exactly once
// by the end, and the drained heap must have let its burst-sized backing
// array go.
func TestStoreDifferential(t *testing.T) {
	const seed = 8
	pushes := diffSize(1_000_000)
	rng := rand.New(rand.NewSource(seed))

	ref := &heapStore{}
	discarded := discardLog{}
	h := &eventHeap{discard: discarded.hook(t)}
	// Both stores hold pointers to the same event objects: neither store
	// writes to an event, so sharing keeps cancellation atomic across the
	// pair and lets pops be compared by identity.
	var pending []*event
	canceled := 0

	var id uint64
	var now time.Duration // time of the last popped event
	push := func(at time.Duration) {
		id++
		e := &event{at: at, id: id}
		ref.push(e)
		h.push(e)
		pending = append(pending, e)
	}
	popBoth := func() bool {
		a, b := ref.pop(), h.pop()
		if a != b {
			t.Fatalf("pop diverged after %d ids: reference=%v heap=%v", id, evString(a), evString(b))
		}
		if a == nil {
			return false
		}
		a.fired = true // neither store reads it; a later cancel is a no-op
		if n := len(h.q); n < cap(h.q) && h.q[:n+1][n].e != nil {
			t.Fatalf("the slot the heap vacated still holds %v", evString(h.q[:n+1][n].e))
		}
		// The op stream may push duplicates of already-popped times, so
		// pops are not globally monotone; the reference is the order
		// oracle. Track the frontier for the push-time distribution only.
		if a.at > now {
			now = a.at
		}
		return true
	}

	// Spread pushes relative to the current pop frontier: exact ties,
	// the next few milliseconds, the next seconds, and minutes out.
	randomAt := func() time.Duration {
		switch rng.Intn(10) {
		case 0, 1, 2:
			return now + time.Duration(rng.Int63n(int64(4*time.Millisecond)))
		case 3, 4, 5:
			return now + time.Duration(rng.Int63n(int64(17*time.Second)))
		case 6, 7:
			return now + time.Duration(rng.Int63n(int64(10*time.Minute)))
		case 8:
			return now // exact tie on the frontier
		default:
			// Duplicate a pending event's time: equal-time events must
			// pop in schedule-id order.
			if len(pending) > 0 {
				return pending[rng.Intn(len(pending))].at
			}
			return now
		}
	}

	for int(id) < pushes {
		switch op := rng.Intn(10); {
		case op < 6: // push
			push(randomAt())
		case op < 8: // pop
			popBoth()
		case op < 9: // cancel a random pending event
			if len(pending) > 0 {
				i := rng.Intn(len(pending))
				if !pending[i].fired {
					canceled++
				}
				pending[i].canceled = true
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
			}
		default: // peek
			at1, ok1 := ref.next()
			at2, ok2 := h.next()
			if at1 != at2 || ok1 != ok2 {
				t.Fatalf("next diverged: reference=(%v,%v) heap=(%v,%v)", at1, ok1, at2, ok2)
			}
		}
	}
	for popBoth() {
	}
	if len(discarded) != canceled {
		t.Fatalf("discard got %d of %d canceled events", len(discarded), canceled)
	}
	if h.q != nil {
		t.Fatalf("drained heap keeps a backing array of %d entries", cap(h.q))
	}
}

func evString(e *event) string {
	if e == nil {
		return "<nil>"
	}
	return fmt.Sprintf("(at=%v id=%d)", e.at, e.id)
}

// TestStoreDifferentialBehindWindow pushes events behind the last pop,
// as happens after a RunUntil has advanced the clock past a drained
// stretch and a later schedule lands earlier than the far event that
// was popped. They must still pop in global (time, id) order, interleaved
// correctly with a later event.
func TestStoreDifferentialBehindWindow(t *testing.T) {
	ref := &heapStore{}
	h := &eventHeap{discard: discardLog{}.hook(t)}
	var id uint64
	push := func(at time.Duration) *event {
		id++
		e := &event{at: at, id: id}
		ref.push(e)
		h.push(e)
		return e
	}
	popBoth := func() *event {
		a, b := ref.pop(), h.pop()
		if a != b {
			t.Fatalf("pop diverged: reference=%v heap=%v", evString(a), evString(b))
		}
		return a
	}

	push(time.Hour)
	if e := popBoth(); e == nil || e.at != time.Hour {
		t.Fatalf("expected the far event, got %v", evString(e))
	}
	// These land behind the last pop: they must come back earliest-first
	// anyway, interleaved correctly with a later event.
	early := push(time.Minute)
	mid := push(30 * time.Minute)
	later := push(time.Hour + time.Millisecond)
	for _, want := range []*event{early, mid, later} {
		if got := popBoth(); got != want {
			t.Fatalf("order diverged: got %v want %v", evString(got), evString(want))
		}
	}
	if got := popBoth(); got != nil {
		t.Fatalf("expected empty stores, got %v", evString(got))
	}
}

// clockScript drives one Clock through a seeded workload exercising
// every scheduler entry point — AfterFunc chains that re-arm at the
// same time, Timer.Stop cancellations, Sleep/Waiter parking, and
// RunUntil hops followed by pushes behind the events already run — and
// returns the execution trace. Two clocks given the same
// seed must return byte-identical traces.
func clockScript(c *Clock, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	logf := func(format string, args ...interface{}) {
		trace = append(trace, fmt.Sprintf("%d %s", c.Now(), fmt.Sprintf(format, args...)))
	}

	chains := diffSize(2_000)
	var chain func(id, step int)
	chain = func(id, step int) {
		logf("chain %d step %d", id, step)
		if step >= 5 {
			return
		}
		// One in three re-arms at delay zero: a same-time AfterFunc
		// chain, ordered by schedule id alone.
		var d time.Duration
		switch rng.Intn(3) {
		case 0:
			d = 0
		case 1:
			d = time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
		default:
			d = time.Duration(rng.Int63n(int64(20 * time.Second)))
		}
		tm := c.AfterFunc(d, func() { chain(id, step+1) })
		// Occasionally arm a decoy alongside and cancel it immediately.
		if rng.Intn(4) == 0 {
			decoy := c.AfterFunc(d, func() { logf("decoy %d fired (BUG unless uncanceled)", id) })
			if rng.Intn(2) == 0 {
				decoy.Stop()
			}
		}
		// Rarely cancel the chain itself.
		if rng.Intn(50) == 0 {
			tm.Stop()
			logf("chain %d stopped at step %d", id, step)
		}
	}
	for i := 0; i < chains; i++ {
		start := time.Duration(rng.Int63n(int64(40 * time.Second)))
		i := i
		c.At(start, func() { chain(i, 0) })
	}
	// A few sleeper tasks interleave Sleep and Waiter timeouts with the
	// chains.
	for i := 0; i < 16; i++ {
		i := i
		start := time.Duration(rng.Int63n(int64(10 * time.Second)))
		c.At(start, func() {
			for s := 0; s < 4; s++ {
				c.Sleep(time.Duration(i+1) * 777 * time.Millisecond)
				logf("sleeper %d tick %d", i, s)
			}
			w := c.NewWaiter()
			if !w.Wait(5 * time.Second) {
				logf("sleeper %d wait timed out", i)
			}
		})
	}

	// Drain in RunUntil hops with growing gaps, pushing fresh events
	// after each hop — some land behind events the hop already ran.
	var deadline time.Duration
	for hop := 0; deadline < 2*time.Minute; hop++ {
		deadline += time.Duration(rng.Int63n(int64(20 * time.Second)))
		c.RunUntil(deadline)
		hop := hop
		at := deadline + time.Duration(rng.Int63n(int64(time.Second)))
		c.At(at, func() { logf("hop %d extra", hop) })
	}
	c.Run()
	return trace
}

// TestClockDifferential runs the full scheduler workload on NewClock's
// event heap and on the reference clock and requires byte-identical
// execution traces — the end-to-end version of the store test, through
// every Clock entry point.
func TestClockDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		got := clockScript(NewClock(), seed)
		ref := clockScript(NewReferenceClock(), seed)
		if len(got) != len(ref) {
			t.Fatalf("seed %d: trace lengths diverged: heap=%d ref=%d", seed, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: traces diverged at %d:\n  heap: %s\n  ref:  %s", seed, i, got[i], ref[i])
			}
		}
	}
}

// BenchmarkStorePushPop measures raw store throughput: N pending events
// pushed then drained, the event-queue half of the simulator's hot
// loop.
func BenchmarkStorePushPop(b *testing.B) {
	for _, impl := range []struct {
		name string
		mk   func() eventStore
	}{
		{"heap", func() eventStore { return &eventHeap{} }},
		{"reference", func() eventStore { return &heapStore{} }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			const n = 100_000
			rng := rand.New(rand.NewSource(1))
			at := make([]time.Duration, n)
			for i := range at {
				at[i] = time.Duration(rng.Int63n(int64(30 * time.Second)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := impl.mk()
				for j := 0; j < n; j++ {
					s.push(&event{at: at[j], id: uint64(j + 1)})
				}
				for s.pop() != nil {
				}
			}
			b.SetBytes(n)
		})
	}
}
