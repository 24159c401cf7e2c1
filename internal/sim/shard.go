package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ShardRunner executes a deployment partitioned across several Clocks
// using conservative-lookahead parallel discrete-event simulation.
//
// Nodes are sharded (by cluster, in the scale harness) and each shard
// owns one Clock. Virtual time advances in lockstep windows [T, T+L)
// where L is the lookahead bound — the minimum cross-shard link latency
// of the transport. Within a window every shard drains its own clock in
// parallel: conservative lookahead guarantees no event executed in this
// window can schedule work on another shard earlier than the window's
// end, so the shards cannot causally race. Cross-shard sends are
// buffered in per-shard outboxes during the window and flushed at the
// barrier, sorted by (arrival time, sending shard, send sequence) so
// target-clock schedule ids — and therefore equal-time execution order
// — are a pure function of the virtual schedule, never of host timing.
//
// Post panics if an arrival violates the lookahead bound: that means
// the transport handed the runner a cross-shard latency below L, which
// would silently corrupt causality in any conservative simulator.
type ShardRunner struct {
	clocks    []*Clock
	lookahead time.Duration

	// outboxes are per-shard: each is appended only by its own shard's
	// goroutine during a window, so no locking is needed until the
	// barrier merges them.
	outboxes [][]crossEvent
	seqs     []uint64

	windowEnd time.Duration // exclusive end of the executing window
}

// crossEvent is one buffered cross-shard arrival.
type crossEvent struct {
	at   time.Duration
	from int
	seq  uint64
	to   int
	fn   func()
}

// NewShardRunner builds a runner with n shards and the given lookahead
// bound (the minimum cross-shard one-way latency; must be positive).
func NewShardRunner(n int, lookahead time.Duration) *ShardRunner {
	if n < 1 {
		panic("sim: ShardRunner needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: ShardRunner lookahead must be positive")
	}
	r := &ShardRunner{
		clocks:    make([]*Clock, n),
		lookahead: lookahead,
		outboxes:  make([][]crossEvent, n),
		seqs:      make([]uint64, n),
	}
	for i := range r.clocks {
		r.clocks[i] = NewClock()
	}
	return r
}

// Clock returns shard i's clock. Deployment setup schedules each node's
// tasks directly on its owning shard's clock.
func (r *ShardRunner) Clock(i int) *Clock { return r.clocks[i] }

// Lookahead returns the conservative lookahead bound L.
func (r *ShardRunner) Lookahead() time.Duration { return r.lookahead }

// Post buffers fn to run as a task on shard to's clock at absolute
// virtual time at. It must be called from code executing on shard
// from's clock during a window; the event is delivered at the next
// barrier. Arrivals earlier than the current window's end violate the
// lookahead contract and panic.
func (r *ShardRunner) Post(from, to int, at time.Duration, fn func()) {
	if at < r.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard event at %v arrives inside the open window (end %v): link latency below the %v lookahead bound", at, r.windowEnd, r.lookahead))
	}
	r.seqs[from]++
	r.outboxes[from] = append(r.outboxes[from], crossEvent{at: at, from: from, seq: r.seqs[from], to: to, fn: fn})
}

// Run drains all shards through virtual time until (inclusive),
// advancing every clock to exactly until. Windows with no pending work
// anywhere are skipped by jumping straight to the earliest pending
// event, so idle stretches cost nothing.
func (r *ShardRunner) Run(until time.Duration) {
	// One drive per clock around all the windows, so each shard's idle
	// workers survive from window to window and exit when Run returns.
	for _, c := range r.clocks {
		c.beginDrive()
		defer c.endDrive()
	}
	for {
		// Outboxes are empty between windows, so the earliest pending
		// event across all clocks is the true global frontier.
		minNext := time.Duration(-1)
		for _, c := range r.clocks {
			if at, ok := c.NextEventTime(); ok && (minNext < 0 || at < minNext) {
				minNext = at
			}
		}
		if minNext < 0 || minNext > until {
			break
		}
		end := minNext + r.lookahead
		if end > until+1 {
			end = until + 1
		}
		r.windowEnd = end

		if len(r.clocks) == 1 {
			r.clocks[0].RunUntil(end - 1)
		} else {
			var wg sync.WaitGroup
			for _, c := range r.clocks {
				wg.Add(1)
				c := c
				go func() {
					defer wg.Done()
					c.RunUntil(end - 1)
				}()
			}
			wg.Wait()
		}
		r.flush()
	}
	for _, c := range r.clocks {
		c.RunUntil(until)
	}
}

// flush merges the window's outboxes and schedules every cross-shard
// arrival on its target clock in (at, from, seq) order, making
// schedule-id assignment — and equal-time tie-breaks — deterministic.
func (r *ShardRunner) flush() {
	var all []crossEvent
	for i, box := range r.outboxes {
		all = append(all, box...)
		r.outboxes[i] = box[:0]
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.seq < b.seq
	})
	for _, ev := range all {
		r.clocks[ev.to].At(ev.at, ev.fn)
	}
}

// Executed sums events executed across all shard clocks.
func (r *ShardRunner) Executed() uint64 {
	var n uint64
	for _, c := range r.clocks {
		n += c.Executed()
	}
	return n
}
