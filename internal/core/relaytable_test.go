package core

import (
	"fmt"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// TestRelayTableIsBounded fills a relay's control-plane flow table from
// a stranger's address on the virtual clock, one destination per open (a
// repeat open for the same destination is answered with the flow it
// already has, TestRelayOpenIsIdempotent): at maxRelayFlows an open is
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
		opened := 0
		open := func() (*transport.Message, error) {
			opened++
			return mem.Call(relay.Addr(), &transport.Message{
				Type: transport.MsgRelayOpen, From: "stranger", Dst: transport.Addr(fmt.Sprintf("dst-%d", opened)),
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
		relay.mu.Lock()
		indexed := len(relay.flowIdx)
		relay.mu.Unlock()
		if indexed != 2 {
			t.Errorf("index holds %d entries after the sweep, want 2: a reclaimed flow must take its entry with it", indexed)
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

// TestRelayOpenIsIdempotent repeats one caller's MsgRelayOpen — the
// duplicate a lost reply or a resend on a stale kept connection produces:
// the relay answers with the flow it already opened and refreshes its
// idle clock, instead of leaving an orphan entry that nothing keepalives.
// Another caller, or another destination, still gets a flow of its own,
// and so does a caller that names its flow as dropped.
func TestRelayOpenIsIdempotent(t *testing.T) {
	clk := sim.NewClock()
	mem := transport.NewMem()
	mem.Sched = clk
	defer func() { _ = mem.Close() }()

	clk.RunTask(func() {
		bs, err := NewBootstrap(mem, "bs", DemoBootstrapConfig())
		if err != nil {
			t.Fatal(err)
		}
		relay, err := NewNode(mem, "r", NodeConfig{
			IP: "10.30.0.1", Bootstrap: bs.Addr(), Params: testParams(), Sched: clk, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer relay.Close()
		replace := func(from, dst transport.Addr, dropped uint64) uint64 {
			resp, err := mem.Call(relay.Addr(), &transport.Message{Type: transport.MsgRelayOpen, From: from, Dst: dst, FlowID: dropped})
			if err != nil {
				t.Fatalf("open %s -> %s: %v", from, dst, err)
			}
			return resp.FlowID
		}
		open := func(from, dst transport.Addr) uint64 { return replace(from, dst, 0) }
		table := func() (flows, index int) {
			relay.mu.Lock()
			defer relay.mu.Unlock()
			return len(relay.flows), len(relay.flowIdx)
		}

		first := open("a", "b")
		clk.Sleep(10 * time.Second)
		if again := open("a", "b"); again != first {
			t.Errorf("repeat open returned flow %d, want the existing flow %d", again, first)
		}
		relay.mu.Lock()
		seen := relay.flows[first].lastSeen
		relay.mu.Unlock()
		if seen != clk.Now() {
			t.Errorf("repeat open left lastSeen at %v, want %v", seen, clk.Now())
		}
		if other := open("c", "b"); other == first {
			t.Error("a different caller was handed the first caller's flow")
		}
		if other := open("a", "d"); other == first {
			t.Error("a different destination was handed the first flow")
		}
		// An open that names the held flow as dropped (EnsureFlow after
		// DropFlow) releases it for a fresh one; the duplicate of that
		// request finds the fresh flow.
		fresh := replace("a", "b", first)
		if fresh == first {
			t.Error("an open naming the held flow as dropped was handed it back")
		}
		if again := replace("a", "b", first); again != fresh {
			t.Errorf("duplicate of the replacing open returned flow %d, want %d", again, fresh)
		}
		if flows, index := table(); flows != 3 || index != 3 {
			t.Errorf("table holds %d flows / %d index entries, want 3 / 3", flows, index)
		}
	})
}
