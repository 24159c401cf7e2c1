package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"asap/internal/sim"
)

// TestMemShardedCallEquivalence drives the same two-node request
// exchange through the inline path (one clock) and the sharded path
// (two shards, cross-shard posts) and requires identical virtual
// timings: the handler must observe the request at send + one-way
// latency and the caller must get the response a further handler-time +
// one-way latency later, no matter which execution mode delivered it.
func TestMemShardedCallEquivalence(t *testing.T) {
	const oneWay = 3 * time.Millisecond
	const handlerWork = 700 * time.Microsecond

	type timing struct {
		handlerAt time.Duration
		doneAt    time.Duration
	}

	runInline := func() timing {
		clk := sim.NewClock()
		m := NewMem()
		defer func() { _ = m.Close() }()
		m.Sched = clk
		m.Latency = func(from, to Addr) time.Duration { return oneWay }
		var tm timing
		if _, err := m.Serve("b", func(from Addr, req *Message) (*Message, error) {
			tm.handlerAt = clk.Now()
			clk.Sleep(handlerWork)
			return &Message{Type: MsgPong}, nil
		}); err != nil {
			t.Fatal(err)
		}
		clk.RunTask(func() {
			if _, err := m.Call("b", &Message{Type: MsgPing, From: "a"}); err != nil {
				t.Error(err)
			}
			tm.doneAt = clk.Now()
		})
		return tm
	}

	runSharded := func() timing {
		r := sim.NewShardRunner(2, oneWay)
		m := NewMem()
		defer func() { _ = m.Close() }()
		m.Latency = func(from, to Addr) time.Duration { return oneWay }
		m.EnableSharding(r, func(a Addr) int {
			if a == "a" {
				return 0
			}
			return 1
		})
		var tm timing
		if _, err := m.Serve("b", func(from Addr, req *Message) (*Message, error) {
			tm.handlerAt = r.Clock(1).Now()
			r.Clock(1).Sleep(handlerWork)
			return &Message{Type: MsgPong}, nil
		}); err != nil {
			t.Fatal(err)
		}
		r.Clock(0).At(0, func() {
			if _, err := m.Call("b", &Message{Type: MsgPing, From: "a"}); err != nil {
				t.Error(err)
			}
			tm.doneAt = r.Clock(0).Now()
		})
		r.Run(time.Second)
		return tm
	}

	inline, sharded := runInline(), runSharded()
	if inline.handlerAt != oneWay || inline.doneAt != 2*oneWay+handlerWork {
		t.Fatalf("inline timing = %+v, want handler at %v, done at %v", inline, oneWay, 2*oneWay+handlerWork)
	}
	if sharded != inline {
		t.Fatalf("sharded timing %+v diverges from inline %+v", sharded, inline)
	}
}

// TestMemCallBudgetDeterministic drives one budgeted call through the
// inline path (one clock), the same-shard path and the cross-shard path
// of the sharded runner, in each budget case: the one-way latency uses
// the whole budget (dropped in transit, no handler), the reply would
// land after or exactly at the deadline (handler runs, reply dropped),
// and the reply lands in time. The caller must return at the same
// virtual instant with the same outcome on every path, and a dropped
// one at exactly send + budget with context.DeadlineExceeded.
func TestMemCallBudgetDeterministic(t *testing.T) {
	const oneWay = 3 * time.Millisecond
	type outcome struct {
		handled bool
		doneAt  time.Duration
		expired bool
	}
	serve := func(m *Mem, now func() time.Duration, o *outcome) {
		if _, err := m.Serve("b", func(from Addr, req *Message) (*Message, error) {
			if now() != oneWay {
				t.Errorf("handler ran at %v, want %v", now(), oneWay)
			}
			o.handled = true
			return &Message{Type: MsgPong}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	call := func(m *Mem, now func() time.Duration, o *outcome, budget time.Duration) {
		_, err := m.Call("b", &Message{Type: MsgPing, From: "a", Timeout: budget})
		o.doneAt, o.expired = now(), errors.Is(err, context.DeadlineExceeded)
		if err != nil && !o.expired {
			t.Errorf("budget %v: err = %v, want nil or a deadline", budget, err)
		}
	}
	inline := func(budget time.Duration) outcome {
		clk := sim.NewClock()
		m := NewMem()
		defer func() { _ = m.Close() }()
		m.Sched = clk
		m.Latency = func(from, to Addr) time.Duration { return oneWay }
		var o outcome
		serve(m, clk.Now, &o)
		clk.RunTask(func() { call(m, clk.Now, &o, budget) })
		return o
	}
	sharded := func(budget time.Duration, bShard int) outcome {
		r := sim.NewShardRunner(2, oneWay)
		m := NewMem()
		defer func() { _ = m.Close() }()
		m.Latency = func(from, to Addr) time.Duration { return oneWay }
		m.EnableSharding(r, func(a Addr) int {
			if a == "a" {
				return 0
			}
			return bShard
		})
		var o outcome
		serve(m, r.Clock(bShard).Now, &o)
		r.Clock(0).At(0, func() { call(m, r.Clock(0).Now, &o, budget) })
		r.Run(time.Second)
		return o
	}
	for _, tc := range []struct {
		name   string
		budget time.Duration
		want   outcome
	}{
		{"latency uses the budget", oneWay, outcome{handled: false, doneAt: oneWay, expired: true}},
		{"reply late", oneWay + time.Millisecond, outcome{handled: true, doneAt: oneWay + time.Millisecond, expired: true}},
		{"reply at the deadline", 2 * oneWay, outcome{handled: true, doneAt: 2 * oneWay, expired: true}},
		{"in time", 2*oneWay + time.Millisecond, outcome{handled: true, doneAt: 2 * oneWay, expired: false}},
	} {
		if got := inline(tc.budget); got != tc.want {
			t.Errorf("%s, inline: %+v, want %+v", tc.name, got, tc.want)
		}
		if got := sharded(tc.budget, 0); got != tc.want {
			t.Errorf("%s, same shard: %+v, want %+v", tc.name, got, tc.want)
		}
		if got := sharded(tc.budget, 1); got != tc.want {
			t.Errorf("%s, cross-shard: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestMemShardedLatencyBelowLookaheadPanics: a cross-shard pair whose
// latency undercuts the lookahead bound would let a request arrive
// inside an already-executed window; the transport must refuse loudly.
func TestMemShardedLatencyBelowLookaheadPanics(t *testing.T) {
	r := sim.NewShardRunner(2, 5*time.Millisecond)
	m := NewMem()
	defer func() { _ = m.Close() }()
	m.Latency = func(from, to Addr) time.Duration { return time.Millisecond }
	m.EnableSharding(r, func(a Addr) int {
		if a == "a" {
			return 0
		}
		return 1
	})
	if _, err := m.Serve("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	panicked := false
	r.Clock(0).At(0, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		_, _ = m.Call("b", &Message{Type: MsgPing, From: "a"})
	})
	r.Run(time.Second)
	if !panicked {
		t.Fatal("sub-lookahead cross-shard call did not panic")
	}
}

// TestMessagePool: acquire/release round-trips hand back zeroed
// envelopes, and concurrent use is race-free (run under -race in CI).
func TestMessagePool(t *testing.T) {
	m := AcquireMessage()
	m.Type = MsgVoice
	m.Frames = []byte{1, 2, 3}
	m.CloseSet = []CloseEntry{{ClusterKey: "k"}}
	ReleaseMessage(m)
	got := AcquireMessage()
	if got.Type != 0 || got.Frames != nil || got.CloseSet != nil {
		t.Fatalf("pool returned a dirty message: %+v", got)
	}
	ReleaseMessage(got)
	ReleaseMessage(nil) // must be a no-op

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m := AcquireMessage()
				m.Seq = uint32(j)
				ReleaseMessage(m)
			}
		}()
	}
	wg.Wait()
}
