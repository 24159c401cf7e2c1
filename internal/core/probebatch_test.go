package core

import (
	"errors"
	"testing"
	"time"

	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
)

// These tests pin the probe path (ProbePaths / MsgProbeBatch) to the
// link latencies the world is configured with: on a virtual clock a
// path's measured round trip must be exactly twice its own leg plus
// twice its far leg, unreachable legs must degrade per path instead of
// failing the whole batch, and an oversized batch must be refused
// before the relay pings anyone.

// probeBatchWorld builds a latency-emulated Mem deployment on a virtual
// clock: a bootstrap, two relays, a caller and two callees. Bootstrap
// links are free so node construction can run outside clock tasks.
func probeBatchWorld(t *testing.T) (*sim.Clock, *transport.Mem, map[string]*Node) {
	t.Helper()
	clk := &sim.Clock{}
	lat := map[[2]transport.Addr]time.Duration{
		{"c", "r1"}:  10 * time.Millisecond,
		{"c", "r2"}:  25 * time.Millisecond,
		{"c", "d1"}:  40 * time.Millisecond,
		{"r1", "d1"}: 15 * time.Millisecond,
		{"r1", "d2"}: 30 * time.Millisecond,
		{"r2", "d1"}: 5 * time.Millisecond,
	}
	mem := transport.NewMem()
	mem.Sched = clk
	t.Cleanup(func() { _ = mem.Close() })
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes := make(map[string]*Node)
	// Joining pings peer surrogates with clock waiters, so construction
	// runs as a clock task.
	ips := map[string]string{
		"c": "10.100.0.1", "r1": "10.30.0.1", "r2": "10.10.0.1",
		"d1": "10.200.0.1", "d2": "10.20.0.1",
	}
	clk.RunTask(func() {
		for _, name := range []string{"c", "r1", "r2", "d1", "d2"} {
			n, err := NewNode(mem, transport.Addr(name), NodeConfig{
				IP:        ips[name],
				Bootstrap: bs.Addr(),
				Params:    testParams(),
				Sched:     clk,
			})
			if err != nil {
				t.Errorf("node %s: %v", name, err)
				return
			}
			nodes[name] = n
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	// Latency goes live only after the joins settle: construction runs on
	// free links outside clock tasks, the probes under test pay the
	// emulated delays inside RunTask. Nothing is in flight here (no
	// leases, no background timers), so the plain assignment is safe.
	mem.Latency = func(from, to transport.Addr) time.Duration {
		if d, ok := lat[[2]transport.Addr{from, to}]; ok {
			return d
		}
		return lat[[2]transport.Addr{to, from}]
	}
	return clk, mem, nodes
}

func TestProbePathsMeasuresOwnPlusFarLeg(t *testing.T) {
	clk, _, nodes := probeBatchWorld(t)
	caller := nodes["c"]

	// Each want is 2 x own leg + 2 x far leg from probeBatchWorld's table.
	const ms = time.Millisecond
	cases := []struct {
		req     session.PathRequest
		wantRTT time.Duration
	}{
		{session.PathRequest{Relay: "r1", Callee: "d1"}, 2*10*ms + 2*15*ms},
		{session.PathRequest{Relay: "r1", Callee: "d2"}, 2*10*ms + 2*30*ms}, // shares r1's batch
		{session.PathRequest{Relay: "r2", Callee: "d1"}, 2*25*ms + 2*5*ms},
		{session.PathRequest{Relay: "", Callee: "d1"}, 2 * 40 * ms},         // direct: no far leg
		{session.PathRequest{Relay: "r1", Callee: "d1"}, 2*10*ms + 2*15*ms}, // duplicate: shares the first leg
	}
	reqs := make([]session.PathRequest, len(cases))
	for i, c := range cases {
		reqs[i] = c.req
	}
	var got []session.PathResult
	clk.RunTask(func() { got = caller.ProbePaths(reqs) })

	for i, c := range cases {
		if got[i].Err != nil {
			t.Fatalf("req %d (%+v): %v", i, c.req, got[i].Err)
		}
		if got[i].RTT != c.wantRTT {
			t.Errorf("req %d (%+v): RTT %v, want %v", i, c.req, got[i].RTT, c.wantRTT)
		}
		if got[i].Loss != 0 {
			t.Errorf("req %d (%+v): loss %.3f, want 0: a probe reports no loss it did not measure", i, c.req, got[i].Loss)
		}
	}
}

func TestProbePathsUnreachableLegDegradesAlone(t *testing.T) {
	clk, _, nodes := probeBatchWorld(t)
	caller := nodes["c"]

	reqs := []session.PathRequest{
		{Relay: "r1", Callee: "d1"},
		{Relay: "r1", Callee: "ghost"}, // relay's far leg is dead
		{Relay: "", Callee: "ghost"},   // the wire target itself is dead
	}
	var got []session.PathResult
	clk.RunTask(func() { got = caller.ProbePaths(reqs) })

	if got[0].Err != nil {
		t.Fatalf("healthy path failed alongside dead legs: %v", got[0].Err)
	}
	if got[0].RTT != 50*time.Millisecond {
		t.Errorf("healthy path RTT = %v, want 50ms", got[0].RTT)
	}
	if got[1].Err == nil || !errors.Is(got[1].Err, transport.ErrUnreachable) {
		t.Errorf("dead far leg error = %v, want ErrUnreachable", got[1].Err)
	}
	if got[2].Err == nil || !errors.Is(got[2].Err, transport.ErrUnreachable) {
		t.Errorf("dead direct target error = %v, want ErrUnreachable", got[2].Err)
	}
}

// TestProbeBatchOverCapRefused aims probe batches at a counting endpoint
// through a relay: the largest allowed batch pings every destination;
// with one destination more the relay refuses the request and pings none.
func TestProbeBatchOverCapRefused(t *testing.T) {
	clk, mem, _ := probeBatchWorld(t)
	pings := 0 // written only by clock tasks, which run one at a time
	if _, err := mem.Serve("sink", func(_ transport.Addr, m *transport.Message) (*transport.Message, error) {
		pings++
		return &transport.Message{Type: transport.MsgPong, SentAt: m.SentAt}, nil
	}); err != nil {
		t.Fatal(err)
	}
	batch := func(n int) (*transport.Message, error) {
		dsts := make([]transport.Addr, n)
		for i := range dsts {
			dsts[i] = "sink"
		}
		var resp *transport.Message
		var err error
		clk.RunTask(func() {
			resp, err = mem.Call("r1", &transport.Message{Type: transport.MsgProbeBatch, From: "c", ProbeDsts: dsts})
		})
		return resp, err
	}

	resp, err := batch(maxProbeBatch)
	if err != nil {
		t.Fatalf("batch at the cap: %v", err)
	}
	if len(resp.ProbeRTTs) != maxProbeBatch || pings != maxProbeBatch {
		t.Fatalf("batch at the cap: %d RTTs, %d pings, want %d of each", len(resp.ProbeRTTs), pings, maxProbeBatch)
	}

	pings = 0
	if _, err = batch(maxProbeBatch + 1); err == nil {
		t.Fatal("over-cap batch was accepted")
	}
	if transport.IsTransient(err) {
		t.Errorf("over-cap refusal %q is transient: a retry would resend the same oversized batch", err)
	}
	if pings != 0 {
		t.Errorf("over-cap batch sent %d pings before it was refused, want 0", pings)
	}
}
