package core

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
)

// This file tests the in-call machinery the session layer drives through
// a Node: keepalives, relay path probes, quality reports, flow caching,
// and — end to end over the in-memory transport — a live relay death
// followed by failover to the best backup.

// keepaliveWorld is a caller and a relay node over Mem, on real time.
func keepaliveWorld(t *testing.T) (caller, relay *Node) {
	t.Helper()
	mem := transport.NewMem()
	t.Cleanup(func() { _ = mem.Close() })
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	relay, err = NewNode(mem, "r", NodeConfig{IP: "10.30.0.1", Bootstrap: bs.Addr(), Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	caller, err = NewNode(mem, "c", NodeConfig{IP: "10.100.0.1", Bootstrap: bs.Addr(), Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	return caller, relay
}

func TestNodeKeepaliveHandler(t *testing.T) {
	caller, relay := keepaliveWorld(t)

	// Plain liveness (flow ID 0) works against any node.
	if err := caller.Keepalive(relay.Addr(), 0); err != nil {
		t.Fatalf("liveness keepalive: %v", err)
	}
	// A keepalive asserting a flow the relay never opened must fail.
	if err := caller.Keepalive(relay.Addr(), 99); err == nil {
		t.Fatal("keepalive for unknown flow should fail")
	}
	// After opening a flow, asserting it succeeds.
	id, err := caller.EnsureFlow(relay.Addr(), "somewhere")
	if err != nil {
		t.Fatal(err)
	}
	if err := caller.Keepalive(relay.Addr(), id); err != nil {
		t.Fatalf("keepalive for open flow: %v", err)
	}
}

// TestKeepaliveAllocs is the keepalive's row of the allocation gate: a
// ping naming an open relay flow is answered with a pooled MsgPong, so a
// warm keepalive over Mem allocates nothing, both sides counted.
func TestKeepaliveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	caller, relay := keepaliveWorld(t)
	id, err := caller.EnsureFlow(relay.Addr(), "somewhere")
	if err != nil {
		t.Fatal(err)
	}
	keepalive := func() {
		if err := caller.Keepalive(relay.Addr(), id); err != nil {
			t.Fatal(err)
		}
	}
	keepalive()
	if n := testing.AllocsPerRun(200, keepalive); n != 0 {
		t.Errorf("a warm keepalive allocates %.1f times, want 0", n)
	}
}

// The name outlives the quality report, which has left the wire; the probe half is what remains.
func TestNodeProbePathAndQualityReport(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(addr transport.Addr, ip string) *Node {
		n, err := NewNode(mem, addr, NodeConfig{IP: ip, Bootstrap: bs.Addr(), Params: testParams()})
		if err != nil {
			t.Fatalf("node %s: %v", addr, err)
		}
		return n
	}
	relay := mk("r", "10.30.0.1")
	caller := mk("c", "10.100.0.1")
	callee := mk("d", "10.200.0.1")

	// Direct probe: positive RTT, and no loss: a probe measures delay only.
	rtt, loss, err := caller.ProbePath("", callee.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || loss != 0 {
		t.Errorf("direct probe = %v, %.3f", rtt, loss)
	}
	// Relayed probe spans both legs.
	rtt, _, err = caller.ProbePath(relay.Addr(), callee.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Errorf("relayed probe RTT = %v", rtt)
	}
	// A probe through a relay whose callee leg is dead fails.
	if _, _, err := caller.ProbePath(relay.Addr(), "ghost"); err == nil {
		t.Error("probe with unreachable callee leg should fail")
	}
}

func TestEnsureFlowCachesAndDrops(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	relay, err := NewNode(mem, "r", NodeConfig{IP: "10.30.0.1", Bootstrap: bs.Addr(), Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	caller, err := NewNode(mem, "c", NodeConfig{IP: "10.100.0.1", Bootstrap: bs.Addr(), Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	id1, err := caller.EnsureFlow(relay.Addr(), "x")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := caller.EnsureFlow(relay.Addr(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Errorf("repeat EnsureFlow returned %d, want cached %d", id2, id1)
	}
	// A different callee gets its own flow.
	id3, err := caller.EnsureFlow(relay.Addr(), "y")
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Error("distinct callees must not share a flow")
	}
	// Dropping forgets the cache: the next ensure opens a fresh flow.
	caller.DropFlow(relay.Addr(), "x")
	id4, err := caller.EnsureFlow(relay.Addr(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if id4 == id1 {
		t.Error("EnsureFlow after DropFlow must open a new flow")
	}
}

// sessionWorld builds a 4-cluster deployment with two viable relays:
// the direct h1<->h2 path is slow, r1 (AS300) is the best relay and r2
// (AS10) a somewhat slower second choice.
func sessionWorld(t *testing.T) (*transport.Mem, *Node, *Node, *Node, *Node) {
	t.Helper()
	mem := transport.NewMem()
	addrAS := map[transport.Addr]int{"bs": 0, "h1": 100, "h2": 200, "r1": 300, "r2": 10}
	oneWay := map[[2]int]time.Duration{
		{100, 200}: 100 * time.Millisecond, // slow direct
		{100, 300}: 10 * time.Millisecond,
		{200, 300}: 10 * time.Millisecond,
		{10, 100}:  20 * time.Millisecond,
		{10, 200}:  20 * time.Millisecond,
	}
	mem.Latency = func(from, to transport.Addr) time.Duration {
		a, b := addrAS[from], addrAS[to]
		if a > b {
			a, b = b, a
		}
		if d, ok := oneWay[[2]int{a, b}]; ok {
			return d
		}
		return time.Millisecond
	}
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(addr transport.Addr, ip string) *Node {
		n, err := NewNode(mem, addr, NodeConfig{IP: ip, Bootstrap: bs.Addr(), Params: testParams()})
		if err != nil {
			t.Fatalf("node %s: %v", addr, err)
		}
		return n
	}
	r1 := mk("r1", "10.30.0.1")
	r2 := mk("r2", "10.10.0.1")
	h1 := mk("h1", "10.100.0.1")
	h2 := mk("h2", "10.200.0.1")
	if err := h1.RefreshCloseSet(); err != nil {
		t.Fatal(err)
	}
	if err := h2.RefreshCloseSet(); err != nil {
		t.Fatal(err)
	}
	return mem, h1, h2, r1, r2
}

func TestSetupCallRankedCandidates(t *testing.T) {
	mem, h1, h2, r1, r2 := sessionWorld(t)
	defer func() { _ = mem.Close() }()

	choice, err := h1.SetupCall(h2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if choice.Relay != r1.Addr() {
		t.Fatalf("relay = %q, want %q", choice.Relay, r1.Addr())
	}
	if len(choice.Ranked) != 2 {
		t.Fatalf("ranked = %+v, want both relays", choice.Ranked)
	}
	if !sort.SliceIsSorted(choice.Ranked, func(i, j int) bool {
		return choice.Ranked[i].Est < choice.Ranked[j].Est
	}) {
		t.Errorf("ranked candidates not est-sorted: %+v", choice.Ranked)
	}
	if choice.Ranked[0].Relay != choice.Relay {
		t.Errorf("Ranked[0] = %q, want the chosen relay %q", choice.Ranked[0].Relay, choice.Relay)
	}
	if choice.Ranked[1].Relay != r2.Addr() {
		t.Errorf("Ranked[1] = %q, want the backup relay %q", choice.Ranked[1].Relay, r2.Addr())
	}
}

// TestLiveSessionFailover is the wall-clock end-to-end run: a monitored
// relay call through r1, the relay process dies (Mem.Unbind), the
// session manager's keepalives notice, and the call fails over to r2 —
// including re-opening a relay flow there so post-failover keepalives
// assert the new relay's flow rather than the dead one's.
func TestLiveSessionFailover(t *testing.T) {
	mem, h1, h2, r1, r2 := sessionWorld(t)
	defer func() { _ = mem.Close() }()

	choice, err := h1.SetupCall(h2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if choice.Relay != r1.Addr() {
		t.Fatalf("relay = %q, want %q", choice.Relay, r1.Addr())
	}
	flowID, err := h1.EnsureFlow(choice.Relay, h2.Addr())
	if err != nil {
		t.Fatal(err)
	}

	var evMu sync.Mutex
	var events []session.Event
	cfg := session.DefaultConfig()
	cfg.ProbeInterval = 40 * time.Millisecond
	cfg.KeepaliveInterval = 25 * time.Millisecond
	cfg.KeepaliveMisses = 2
	cfg.KeepaliveBackoff = 10 * time.Millisecond
	cfg.Backups = 2
	mgr, err := session.NewManager(cfg, sim.NewWall(), h1,
		session.WithFlowOpener(h1.EnsureFlow),
		session.WithEventLog(func(e session.Event) {
			evMu.Lock()
			events = append(events, e)
			evMu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	sess, err := mgr.Open(h2.Addr(), session.Candidate{Relay: choice.Relay, Est: choice.EstRTT}, choice.Ranked[1:], flowID)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()

	// Let the monitor settle on the healthy relay.
	time.Sleep(150 * time.Millisecond)
	if got := sess.Active().Relay; got != r1.Addr() {
		t.Fatalf("pre-failure active = %q, want %q", got, r1.Addr())
	}
	if sess.Failovers() != 0 {
		t.Fatalf("pre-failure failovers = %d", sess.Failovers())
	}

	// Kill the relay and drop the caller's stale flow cache, as asapd's
	// event hook does on relay-failed.
	mem.Unbind(r1.Addr())
	h1.DropFlow(r1.Addr(), h2.Addr())

	deadline := time.Now().Add(5 * time.Second)
	for sess.Failovers() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if sess.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1 (state %s)", sess.Failovers(), sess.State())
	}
	if got := sess.Active().Relay; got != r2.Addr() {
		t.Fatalf("post-failure active = %q, want backup %q", got, r2.Addr())
	}

	// The failover must have re-opened a flow on r2: if keepalives were
	// still asserting the dead relay's flow ID, r2 would reject them and
	// the session would be declared failed again within a couple of
	// detection windows.
	time.Sleep(4 * cfg.DetectionWindow())
	if st := sess.State(); st == session.StateFailed {
		t.Fatalf("session failed after failover: keepalives not asserting the new relay's flow")
	}
	if sess.Failovers() != 1 {
		t.Fatalf("extra failovers after landing on %q: %d", r2.Addr(), sess.Failovers())
	}

	// Voice still flows end to end through the new relay.
	newChoice := &RelayChoice{Relay: r2.Addr()}
	if err := h1.SendVoice(newChoice, h2.Addr(), []byte("after-failover"), 2); err != nil {
		t.Fatal(err)
	}
	if h2.ReceivedBytes() == 0 {
		t.Error("callee received nothing after failover")
	}

	evMu.Lock()
	defer evMu.Unlock()
	var kinds []string
	sawFail := false
	for _, e := range events {
		kinds = append(kinds, e.Kind)
		if e.Kind == "relay-failed" && e.Relay == r1.Addr() {
			sawFail = true
		}
	}
	if !sawFail {
		t.Errorf("no relay-failed event for %q in %v", r1.Addr(), kinds)
	}
	if !strings.Contains(strings.Join(kinds, ","), "failover") {
		t.Errorf("no failover event in %v", kinds)
	}
}

// TestLiveSessionKeepaliveSurvivesTransientError checks that a single
// missed keepalive (transient, under the miss limit) does not tear the
// call down.
func TestLiveSessionKeepaliveSurvivesTransientError(t *testing.T) {
	mem, h1, h2, r1, _ := sessionWorld(t)
	defer func() { _ = mem.Close() }()

	choice, err := h1.SetupCall(h2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	flowID, err := h1.EnsureFlow(choice.Relay, h2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cfg := session.DefaultConfig()
	cfg.ProbeInterval = 40 * time.Millisecond
	cfg.KeepaliveInterval = 25 * time.Millisecond
	cfg.KeepaliveMisses = 3
	cfg.KeepaliveBackoff = 15 * time.Millisecond
	mgr, err := session.NewManager(cfg, sim.NewWall(), h1, session.WithFlowOpener(h1.EnsureFlow))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	sess, err := mgr.Open(h2.Addr(), session.Candidate{Relay: choice.Relay, Est: choice.EstRTT}, nil, flowID)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()

	// Blip: unbind for less than the detection window, then restore.
	time.Sleep(60 * time.Millisecond)
	mem.Unbind(r1.Addr())
	time.Sleep(20 * time.Millisecond)
	if _, err := mem.Serve(r1.Addr(), relayHandlerOf(t, r1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * cfg.DetectionWindow())
	if sess.Failovers() != 0 {
		t.Errorf("transient blip caused %d failovers", sess.Failovers())
	}
	if st := sess.State(); st == session.StateFailed || st == session.StateClosed {
		t.Errorf("state after transient blip = %s", st)
	}
}

// relayHandlerOf rebinds a node's handler after an Unbind (the Node keeps
// its own state; only the transport registration was dropped).
func relayHandlerOf(t *testing.T, n *Node) transport.Handler {
	t.Helper()
	return n.handle
}

func TestKeepaliveErrorsSurfaceUnreachable(t *testing.T) {
	mem, h1, _, r1, _ := sessionWorld(t)
	defer func() { _ = mem.Close() }()
	mem.Unbind(r1.Addr())
	err := h1.Keepalive(r1.Addr(), 0)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("keepalive to dead relay: err = %v, want ErrUnreachable", err)
	}
}
