package sim

import (
	"fmt"
	"testing"
	"time"
)

// shardHopWorkload runs a synthetic message-passing deployment on a
// ShardRunner: every logical node starts a chain of hops to pseudo-
// random peers, each hop crossing shards via Post (or the owning clock
// directly when source and target share a shard). All arrival times are
// distinct by construction, so the protocol outcome — per-node inboxes
// merged in node-index order — must be byte-identical for every shard
// count.
func shardHopWorkload(t *testing.T, shards int) []string {
	t.Helper()
	const nodes = 64
	const hops = 5
	lookahead := 2 * time.Millisecond
	r := NewShardRunner(shards, lookahead)
	shardOf := func(n int) int { return n % shards }
	inbox := make([][]string, nodes)

	var hop func(from, step int)
	deliver := func(from, to, step int) func() {
		return func() {
			now := r.Clock(shardOf(to)).Now()
			inbox[to] = append(inbox[to], fmt.Sprintf("hop %d from %d at %d", step, from, now))
			if step+1 < hops {
				hop(to, step+1)
			}
		}
	}
	hop = func(from, step int) {
		to := (from*31 + step*17 + 7) % nodes
		src := r.Clock(shardOf(from))
		// Distinct per-(pair, step) jitter keeps every arrival time
		// unique while staying >= the lookahead bound.
		lat := lookahead + time.Duration((from*nodes+to)*hops+step+1)*time.Microsecond
		at := src.Now() + lat
		if shardOf(from) == shardOf(to) {
			src.At(at, deliver(from, to, step))
		} else {
			r.Post(shardOf(from), shardOf(to), at, deliver(from, to, step))
		}
	}
	for n := 0; n < nodes; n++ {
		n := n
		start := time.Duration(n+1) * 137 * time.Microsecond
		r.Clock(shardOf(n)).At(start, func() { hop(n, 0) })
	}
	r.Run(time.Second)

	var out []string
	for n := 0; n < nodes; n++ {
		for _, line := range inbox[n] {
			out = append(out, fmt.Sprintf("node %d: %s", n, line))
		}
	}
	return out
}

// TestShardRunnerByteIdenticalAcrossShardCounts is the differential
// golden for the conservative-lookahead mode: the same seed-free
// deterministic workload must produce identical protocol outcomes at 1,
// 4 and 16 shards, and identical output run-to-run.
func TestShardRunnerByteIdenticalAcrossShardCounts(t *testing.T) {
	want := shardHopWorkload(t, 1)
	if len(want) == 0 {
		t.Fatal("workload produced no output")
	}
	for _, shards := range []int{1, 4, 16} {
		got := shardHopWorkload(t, shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d lines, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d diverged at line %d:\n  got:  %s\n  want: %s", shards, i, got[i], want[i])
			}
		}
	}
}

// TestShardRunnerCrossShardRoundTrip mirrors the transport's sharded
// call path: a task on shard 0 posts a request to shard 1, the handler
// does some virtual work, posts the response back, and a Waiter wakes
// the caller. The caller's completion time must equal the inline
// equivalent sleep(lat); work; sleep(lat).
func TestShardRunnerCrossShardRoundTrip(t *testing.T) {
	r := NewShardRunner(2, time.Millisecond)
	const lat = 2 * time.Millisecond
	const work = 500 * time.Microsecond
	c0, c1 := r.Clock(0), r.Clock(1)
	var done time.Duration
	c0.At(0, func() {
		w := c0.NewWaiter()
		r.Post(0, 1, c0.Now()+lat, func() {
			c1.Sleep(work)
			r.Post(1, 0, c1.Now()+lat, func() { w.Wake() })
		})
		w.Wait(-1)
		done = c0.Now()
	})
	r.Run(10 * time.Millisecond)
	if want := lat + work + lat; done != want {
		t.Fatalf("round trip completed at %v, want %v", done, want)
	}
	if now := c0.Now(); now != 10*time.Millisecond {
		t.Fatalf("clock 0 at %v after Run, want 10ms", now)
	}
}

// TestShardRunnerLookaheadViolationPanics: posting an arrival inside
// the open window means a cross-shard link latency below the lookahead
// bound — the one mistake a conservative simulator must never absorb
// silently.
func TestShardRunnerLookaheadViolationPanics(t *testing.T) {
	r := NewShardRunner(2, time.Millisecond)
	violated := false
	r.Clock(0).At(0, func() {
		defer func() {
			if recover() != nil {
				violated = true
			}
		}()
		r.Post(0, 1, 100*time.Microsecond, func() {})
	})
	r.Run(5 * time.Millisecond)
	if !violated {
		t.Fatal("sub-lookahead Post did not panic")
	}
}

// TestShardRunnerIdleSkip: a deployment with two events minutes apart
// must not grind through empty lookahead windows — executed event
// counts stay at exactly the scheduled work.
func TestShardRunnerIdleSkip(t *testing.T) {
	r := NewShardRunner(4, time.Millisecond)
	fired := 0
	r.Clock(0).At(0, func() { fired++ })
	r.Clock(3).At(10*time.Minute, func() { fired++ })
	r.Run(10 * time.Minute)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if n := r.Executed(); n != 2 {
		t.Fatalf("executed = %d events, want 2 (idle windows must be skipped)", n)
	}
	for i := 0; i < len(r.clocks); i++ {
		if now := r.Clock(i).Now(); now != 10*time.Minute {
			t.Fatalf("shard %d at %v, want 10m", i, now)
		}
	}
}
