package core

import (
	"fmt"
	"testing"
	"time"

	"asap/internal/transport"
)

// actorBootstrapConfig is the demo deployment (DemoBootstrapConfig) with
// the two transit ASes populated as well, five clusters in all:
// 10.10/16 -> AS10 and 10.20/16 -> AS20 beside the three stub prefixes.
func actorBootstrapConfig() BootstrapConfig {
	cfg := DemoBootstrapConfig()
	cfg.Prefixes = append(cfg.Prefixes,
		PrefixOrigin{Prefix: "10.10.0.0/16", ASN: 10},
		PrefixOrigin{Prefix: "10.20.0.0/16", ASN: 20})
	return cfg
}

// latencyFor models the underlay: the multi-homed AS300 sits close to
// both sides, while the 100<->200 direct path is slow (congested).
func latencyFor(addrAS map[transport.Addr]int) func(from, to transport.Addr) time.Duration {
	rtt := map[[2]int]time.Duration{
		{100, 200}: 200 * time.Millisecond, // slow direct (one way)
		{100, 300}: 20 * time.Millisecond,
		{200, 300}: 20 * time.Millisecond,
		{100, 100}: 1 * time.Millisecond,
		{200, 200}: 1 * time.Millisecond,
		{300, 300}: 1 * time.Millisecond,
		{100, 0}:   5 * time.Millisecond, // to bootstrap
		{200, 0}:   5 * time.Millisecond,
		{300, 0}:   5 * time.Millisecond,
	}
	return func(from, to transport.Addr) time.Duration {
		a, b := addrAS[from], addrAS[to]
		if a > b {
			a, b = b, a
		}
		if d, ok := rtt[[2]int{a, b}]; ok {
			return d
		}
		if d, ok := rtt[[2]int{b, a}]; ok {
			return d
		}
		return 2 * time.Millisecond
	}
}

func testParams() Params {
	p := DefaultParams()
	p.LatT = 150 * time.Millisecond
	return p
}

func TestActorJoinAndSurrogacy(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}

	n1, err := NewNode(mem, "h1", NodeConfig{
		IP: "10.100.0.1", Bootstrap: bs.Addr(), Params: testParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !n1.IsSurrogate() {
		t.Error("first node in cluster must volunteer as surrogate")
	}
	if n1.ClusterKey() != "10.100.0.0/16" {
		t.Errorf("cluster key = %q", n1.ClusterKey())
	}

	// Second member of the same cluster is not surrogate.
	n2, err := NewNode(mem, "h2", NodeConfig{
		IP: "10.100.0.2", Bootstrap: bs.Addr(), Params: testParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n2.IsSurrogate() {
		t.Error("second member must not displace the surrogate")
	}
	if n2.ClusterKey() != n1.ClusterKey() {
		t.Error("same-prefix hosts landed in different clusters")
	}

	// A member's close set comes from its surrogate.
	if _, err := n2.CloseSet(); err != nil {
		t.Fatalf("member close set: %v", err)
	}
}

func TestActorJoinErrors(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(mem, "hx", NodeConfig{
		IP: "99.99.99.99", Bootstrap: bs.Addr(), Params: testParams(),
	}); err == nil {
		t.Error("join with unrouted IP should fail")
	}
	if _, err := NewNode(mem, "hy", NodeConfig{
		IP: "not-an-ip", Bootstrap: bs.Addr(), Params: testParams(),
	}); err == nil {
		t.Error("join with invalid IP should fail")
	}
	if _, err := NewNode(mem, "hz", NodeConfig{
		IP: "10.100.0.9", Bootstrap: "nowhere", Params: testParams(),
	}); err == nil {
		t.Error("join with dead bootstrap should fail")
	}
}

// TestActorEndToEndRelayCall runs the full live protocol: three clusters
// join, build close sets by pinging, a slow-direct call selects the
// multi-homed middle cluster as relay, and voice flows through it.
func TestActorEndToEndRelayCall(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	addrAS := map[transport.Addr]int{"bs": 0, "h1": 100, "h2": 200, "h3": 300}
	mem.Latency = latencyFor(addrAS)

	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(addr transport.Addr, ip string) *Node {
		n, err := NewNode(mem, addr, NodeConfig{
			IP: ip, Bootstrap: bs.Addr(), Params: testParams(),
		})
		if err != nil {
			t.Fatalf("node %s: %v", addr, err)
		}
		return n
	}
	h3 := mk("h3", "10.30.0.1") // relay cluster first so others see it
	h1 := mk("h1", "10.100.0.1")
	h2 := mk("h2", "10.200.0.1")

	// Refresh h1/h2 close sets now that every surrogate is registered.
	if err := h1.RefreshCloseSet(); err != nil {
		t.Fatal(err)
	}
	if err := h2.RefreshCloseSet(); err != nil {
		t.Fatal(err)
	}

	choice, err := h1.SetupCall(h2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Direct is ~400ms (2x200ms one-way), over latT; the relay through
	// h3 estimates ~2*(40+40)+40 = 200... the estimate combines two
	// measured pings plus the relay constant — what matters is that a
	// relay was chosen and it is h3.
	if choice.Relay != h3.Addr() {
		t.Fatalf("relay = %q, want %q (direct %v, est %v, candidates %d)",
			choice.Relay, h3.Addr(), choice.Direct, choice.EstRTT, choice.Candidates)
	}
	if choice.Direct < 300*time.Millisecond {
		t.Errorf("direct measurement %v suspiciously fast", choice.Direct)
	}

	payload := []byte("voice-frame-batch")
	if err := h1.SendVoice(choice, h2.Addr(), payload, 1); err != nil {
		t.Fatal(err)
	}
	if got := h2.ReceivedBytes(); got != len(payload) {
		t.Errorf("callee received %d bytes, want %d", got, len(payload))
	}
	if h3.ReceivedBytes() != 0 {
		t.Error("relay must forward, not consume, voice payloads")
	}
}

func TestActorDirectCallWhenFast(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	h1, err := NewNode(mem, "h1", NodeConfig{IP: "10.100.0.1", Bootstrap: bs.Addr(), Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewNode(mem, "h2", NodeConfig{IP: "10.200.0.1", Bootstrap: bs.Addr(), Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	choice, err := h1.SetupCall(h2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if choice.Relay != "" {
		t.Errorf("fast direct path should not use a relay, got %q", choice.Relay)
	}
	if err := h1.SendVoice(choice, h2.Addr(), []byte("hi"), 1); err != nil {
		t.Fatal(err)
	}
	if h2.ReceivedBytes() != 2 {
		t.Errorf("callee received %d bytes, want 2", h2.ReceivedBytes())
	}
}

func TestActorOverTCP(t *testing.T) {
	tcp := transport.NewTCP()
	defer func() { _ = tcp.Close() }()
	bs, err := NewBootstrap(tcp, "127.0.0.1:0", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i, ip := range []string{"10.100.0.1", "10.200.0.1", "10.30.0.1"} {
		n, err := NewNode(tcp, "127.0.0.1:0", NodeConfig{
			IP: ip, Bootstrap: bs.Addr(), Params: testParams(),
			Nodal: transport.NodalInfo{BandwidthKbps: float64(1000 * (i + 1))},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if err := n.RefreshCloseSet(); err != nil {
			t.Fatal(err)
		}
	}
	// Loopback is fast: call goes direct, voice arrives.
	choice, err := nodes[0].SetupCall(nodes[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].SendVoice(choice, nodes[1].Addr(), []byte("over-tcp"), 7); err != nil {
		t.Fatal(err)
	}
	if nodes[1].ReceivedBytes() != 8 {
		t.Errorf("callee received %d bytes", nodes[1].ReceivedBytes())
	}
	// Ping RTT over loopback must be tiny but positive.
	rtt, err := nodes[0].Ping(nodes[2].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Errorf("loopback RTT = %v", rtt)
	}
}

func TestBootstrapValidation(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	if _, err := NewBootstrap(mem, "b1", BootstrapConfig{}); err == nil {
		t.Error("bootstrap without graph should fail")
	}
	cfg := actorBootstrapConfig()
	cfg.Prefixes = append(cfg.Prefixes, PrefixOrigin{Prefix: "garbage", ASN: 1})
	if _, err := NewBootstrap(mem, "b2", cfg); err == nil {
		t.Error("bootstrap with bad prefix should fail")
	}
}

func TestBootstrapRejectsUnknownMessages(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Call(bs.Addr(), &transport.Message{Type: transport.MsgVoice}); err == nil {
		t.Error("bootstrap should reject voice messages")
	}
	if _, err := mem.Call(bs.Addr(), &transport.Message{
		Type: transport.MsgSurrogateHeartbeat, ClusterKey: "1.2.3.0/24",
	}); err == nil {
		t.Error("register for unknown cluster should fail")
	}
}

func TestManyNodesJoinOverMem(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	surrogates := 0
	for i := 0; i < 30; i++ {
		ip := fmt.Sprintf("10.100.0.%d", i+1)
		if i%3 == 1 {
			ip = fmt.Sprintf("10.200.0.%d", i+1)
		}
		if i%3 == 2 {
			ip = fmt.Sprintf("10.30.0.%d", i+1)
		}
		n, err := NewNode(mem, transport.Addr(fmt.Sprintf("n%d", i)), NodeConfig{
			IP: ip, Bootstrap: bs.Addr(), Params: testParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if n.IsSurrogate() {
			surrogates++
		}
	}
	if surrogates != 3 {
		t.Errorf("%d surrogates for 3 clusters", surrogates)
	}
}

// TestCloseSetIsPublishedNotCopied pins the invariant that lets a
// surrogate hand its close set out without copying: the set is replaced
// whole, never written through. A slice fetched from a surrogate — its
// own CloseSet, a member's, a raw MsgGetCloseSet — is the very slice the
// surrogate holds, stays as it was while the surrogate rebuilds (read
// here concurrently with the rebuilds, for the race detector), and the
// fetches leave the surrogate's set as it was.
func TestCloseSetIsPublishedNotCopied(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	join := func(addr transport.Addr, ip string) *Node {
		t.Helper()
		n, err := NewNode(mem, addr, NodeConfig{IP: ip, Bootstrap: bs.Addr(), Params: testParams()})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	join("h3", "10.30.0.1")
	sur := join("h1", "10.100.0.1") // joins after h3, so its set holds h3's cluster
	member := join("h2", "10.100.0.2")

	own, err := sur.CloseSet()
	if err != nil || len(own) != 1 {
		t.Fatalf("surrogate close set = %v, %v; want one entry", own, err)
	}
	before := append([]transport.CloseEntry(nil), own...)
	fetched, err := member.CloseSet()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := mem.Call(sur.Addr(), &transport.Message{Type: transport.MsgGetCloseSet, From: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]transport.CloseEntry{"member": fetched, "raw": resp.CloseSet} {
		if len(got) != 1 || &got[0] != &own[0] {
			t.Errorf("%s fetch is not the surrogate's own slice: %v", name, got)
		}
	}
	if again, _ := sur.CloseSet(); len(again) != 1 || &again[0] != &own[0] || again[0] != before[0] {
		t.Errorf("the fetches changed the surrogate's set: %v, was %v", again, before)
	}

	// A second close cluster appears and the surrogate rebuilds while the
	// fetched slices are being read.
	join("h4", "10.10.0.1")
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := sur.RefreshCloseSet(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for reading := true; reading; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			reading = false
		default:
		}
		for _, got := range [][]transport.CloseEntry{own, fetched, resp.CloseSet} {
			if len(got) != 1 || got[0] != before[0] {
				t.Fatalf("a fetched close set changed under a rebuild: %v, was %v", got, before)
			}
		}
	}
	if now, _ := sur.CloseSet(); len(now) != 2 {
		t.Errorf("rebuilt close set = %v, want two entries", now)
	}
}
