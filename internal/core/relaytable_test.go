package core

import (
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// TestRelayTableIsBounded fills a relay's control-plane flow table from
// a stranger's address on the virtual clock: at maxRelayFlows an open is
// refused with no state change and a terminal error; once the stranger's
// flows have sat idle past relayFlowIdle the next open reclaims them; and
// the one flow a caller kept refreshing survives the sweep.
func TestRelayTableIsBounded(t *testing.T) {
	clk := sim.NewClock()
	mem := transport.NewMem()
	mem.Sched = clk
	defer func() { _ = mem.Close() }()

	clk.RunTask(func() {
		bs, err := NewBootstrap(mem, "bs", DemoBootstrapConfig())
		if err != nil {
			t.Fatal(err)
		}
		mk := func(addr transport.Addr, ip string, seed int64) *Node {
			n, err := NewNode(mem, addr, NodeConfig{
				IP: ip, Bootstrap: bs.Addr(), Params: testParams(), Sched: clk, Seed: seed,
			})
			if err != nil {
				t.Fatalf("node %s: %v", addr, err)
			}
			return n
		}
		relay := mk("r", "10.30.0.1", 1)
		caller := mk("c", "10.100.0.1", 2)
		callee := mk("d", "10.200.0.1", 3)
		defer relay.Close()
		defer caller.Close()
		defer callee.Close()
		tableSize := func() (int, uint64) {
			relay.mu.Lock()
			defer relay.mu.Unlock()
			return len(relay.flows), relay.nextFlowID
		}

		kept, err := caller.EnsureFlow(relay.Addr(), callee.Addr())
		if err != nil {
			t.Fatal(err)
		}
		open := func() (*transport.Message, error) {
			return mem.Call(relay.Addr(), &transport.Message{
				Type: transport.MsgRelayOpen, From: "stranger", Dst: callee.Addr(),
			})
		}
		for i := 1; i < maxRelayFlows; i++ {
			if _, err := open(); err != nil {
				t.Fatalf("open %d below the cap: %v", i, err)
			}
		}

		n0, id0 := tableSize()
		if n0 != maxRelayFlows {
			t.Fatalf("table holds %d flows, want the cap %d", n0, maxRelayFlows)
		}
		if _, err := open(); err == nil {
			t.Fatal("open at the cap was accepted")
		} else if transport.IsTransient(err) {
			t.Errorf("refusal %q is transient: callers would retry into a full table", err)
		}
		if n, id := tableSize(); n != n0 || id != id0 {
			t.Errorf("refused open changed the table: %d flows / next id %d, was %d / %d", n, id, n0, id0)
		}

		// Only the caller's flow sees traffic while the rest go idle.
		clk.Sleep(relayFlowIdle / 2)
		if err := caller.Keepalive(relay.Addr(), kept); err != nil {
			t.Fatalf("keepalive on the kept flow: %v", err)
		}
		clk.Sleep(relayFlowIdle/2 + time.Second)

		resp, err := open()
		if err != nil {
			t.Fatalf("open after relayFlowIdle: %v", err)
		}
		if n, _ := tableSize(); n != 2 {
			t.Errorf("table holds %d flows after the sweep, want 2 (the refreshed flow and the new one)", n)
		}
		if err := caller.Keepalive(relay.Addr(), kept); err != nil {
			t.Errorf("refreshed flow did not survive the sweep: %v", err)
		}
		if err := caller.SendVoice(&RelayChoice{Relay: relay.Addr()}, callee.Addr(), make([]byte, 20), 1); err != nil {
			t.Errorf("voice on the refreshed flow: %v", err)
		}
		if err := caller.Keepalive(relay.Addr(), resp.FlowID-1); err == nil {
			t.Error("an idle flow from before the sweep is still held")
		}
	})
}
