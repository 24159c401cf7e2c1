package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asap/internal/sim"
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
	d := Deploy(t, DeployConfig{Hosts: []DeployHost{{Addr: "h1", IP: "10.100.0.1"}, {Addr: "h2", IP: "10.100.0.2"}}})
	n1, n2 := d.Nodes[0], d.Nodes[1]
	if !n1.IsSurrogate() {
		t.Error("first node in cluster must volunteer as surrogate")
	}
	if n1.ClusterKey() != "10.100.0.0/16" {
		t.Errorf("cluster key = %q", n1.ClusterKey())
	}

	// Second member of the same cluster is not surrogate.
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
	d := Deploy(t, DeployConfig{})
	mem, bs := d.Mem, d.Bootstrap
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
	addrAS := map[transport.Addr]int{"bs": 0, "h1": 100, "h2": 200, "h3": 300}
	// The relay cluster joins first so the others see it; every close set
	// is rebuilt once every surrogate is registered.
	d := Deploy(t, DeployConfig{Latency: latencyFor(addrAS), Refresh: true, Hosts: []DeployHost{
		{Addr: "h3", IP: "10.30.0.1"}, {Addr: "h1", IP: "10.100.0.1"}, {Addr: "h2", IP: "10.200.0.1"},
	}})
	h3, h1, h2 := d.Nodes[0], d.Nodes[1], d.Nodes[2]

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

// countingTransport counts the requests sent through it, by sender.
type countingTransport struct {
	transport.Transport
	mu   sync.Mutex
	sent map[transport.Addr]int64
}

func (c *countingTransport) Call(to transport.Addr, req *transport.Message) (*transport.Message, error) {
	c.mu.Lock()
	c.sent[req.From]++
	c.mu.Unlock()
	return c.Transport.Call(to, req)
}

// sentDuring runs f and returns how many requests from sent meanwhile.
func (c *countingTransport) sentDuring(from transport.Addr, f func()) int64 {
	c.mu.Lock()
	before := c.sent[from]
	c.mu.Unlock()
	f()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent[from] - before
}

// TestRefreshCloseSetOnlyOnSurrogate: a surrogate's refresh costs one
// MsgGetSurrogates plus one ping per other surrogate within K hops; a
// plain member's close set is its surrogate's, so its refresh sends
// nothing.
func TestRefreshCloseSetOnlyOnSurrogate(t *testing.T) {
	ct := &countingTransport{sent: map[transport.Addr]int64{}}
	d := Deploy(t, DeployConfig{
		Wrap: func(tr transport.Transport) transport.Transport { ct.Transport = tr; return ct },
		Hosts: []DeployHost{
			{Addr: "h3", IP: "10.30.0.1"}, {Addr: "h2", IP: "10.200.0.1"},
			{Addr: "h1", IP: "10.100.0.1"}, {Addr: "h1b", IP: "10.100.0.2"},
		},
	})
	sur, member := d.Nodes[2], d.Nodes[3]
	if !sur.IsSurrogate() || member.IsSurrogate() {
		t.Fatalf("roles: h1 surrogate=%v, h1b surrogate=%v", sur.IsSurrogate(), member.IsSurrogate())
	}

	// The other surrogates the bootstrap names for h1's AS.
	resp, err := d.Mem.Call(d.Bootstrap.Addr(), &transport.Message{
		Type: transport.MsgGetSurrogates, From: "probe", ASNs: []uint32{100},
	})
	if err != nil {
		t.Fatal(err)
	}
	others := 0
	for _, e := range resp.CloseSet {
		if e.ClusterKey != sur.ClusterKey() {
			others++
		}
	}
	if others == 0 {
		t.Fatal("bootstrap names no other surrogate: the test proves nothing")
	}

	refresh := func(n *Node) func() {
		return func() {
			if err := n.RefreshCloseSet(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := ct.sentDuring(member.Addr(), refresh(member)); got != 0 {
		t.Errorf("member refresh sent %d messages, want 0", got)
	}
	if got, want := ct.sentDuring(sur.Addr(), refresh(sur)), int64(1+others); got != want {
		t.Errorf("surrogate refresh sent %d messages, want %d (1 + %d pings)", got, want, others)
	}
	// The member still reads the surrogate's set.
	if _, err := member.CloseSet(); err != nil {
		t.Errorf("member close set: %v", err)
	}
}

// pingTap wraps a transport and counts the pings from one node to
// another: those sent, and those the receiver's handler is handed.
type pingTap struct {
	transport.Transport
	from, to     transport.Addr
	sent, served atomic.Int64
}

func (p *pingTap) Call(to transport.Addr, req *transport.Message) (*transport.Message, error) {
	if req.From == p.from && to == p.to && req.Type == transport.MsgPing {
		p.sent.Add(1)
	}
	return p.Transport.Call(to, req)
}

func (p *pingTap) Serve(addr transport.Addr, h transport.Handler) (transport.Addr, error) {
	if addr != p.to {
		return p.Transport.Serve(addr, h)
	}
	return p.Transport.Serve(addr, func(from transport.Addr, req *transport.Message) (*transport.Message, error) {
		if from == p.from && req.Type == transport.MsgPing {
			p.served.Add(1)
		}
		return h(from, req)
	})
}

// pingHold wraps a transport and holds every MsgPing for hold before
// sending it, counting the pings in flight and the most ever at once.
type pingHold struct {
	transport.Transport
	hold time.Duration

	mu             sync.Mutex
	inFlight, most int
}

func (p *pingHold) Call(to transport.Addr, req *transport.Message) (*transport.Message, error) {
	if req.Type != transport.MsgPing {
		return p.Transport.Call(to, req)
	}
	p.mu.Lock()
	p.inFlight++
	p.most = max(p.most, p.inFlight)
	p.mu.Unlock()
	time.Sleep(p.hold)
	resp, err := p.Transport.Call(to, req)
	p.mu.Lock()
	p.inFlight--
	p.mu.Unlock()
	return resp, err
}

// TestCloseSetPingsBoundedOnWall: on the wall scheduler a close-set
// build pings its candidates through at most closeSetPingWorkers
// workers, and through more than one. Twelve clusters of AS300 each get
// a surrogate, so the first one's refresh has eleven candidates. The
// virtual clock ignores Join's limit, so only a wall run shows it.
func TestCloseSetPingsBoundedOnWall(t *testing.T) {
	bc := actorBootstrapConfig()
	var hosts []DeployHost
	for i := range 12 {
		if i > 0 {
			bc.Prefixes = append(bc.Prefixes, PrefixOrigin{Prefix: fmt.Sprintf("10.%d.0.0/16", 30+i), ASN: 300})
		}
		hosts = append(hosts, DeployHost{Addr: transport.Addr(fmt.Sprintf("s%d", i)), IP: fmt.Sprintf("10.%d.0.1", 30+i)})
	}
	hold := &pingHold{hold: 5 * time.Millisecond}
	d := Deploy(t, DeployConfig{
		Wrap:      func(tr transport.Transport) transport.Transport { hold.Transport = tr; return hold },
		Bootstrap: bc, Hosts: hosts,
	})
	defer d.Close()
	for _, n := range d.Nodes {
		if !n.IsSurrogate() {
			t.Fatalf("%s serves no cluster: every host should be its cluster's surrogate", n.Addr())
		}
	}
	if err := d.Nodes[0].RefreshCloseSet(); err != nil {
		t.Fatal(err)
	}
	if set, _ := d.Nodes[0].CloseSet(); len(set) != len(hosts)-1 {
		t.Fatalf("close set of %d, want all %d other surrogates", len(set), len(hosts)-1)
	}
	if most := hold.most; most > closeSetPingWorkers || most < 2 {
		t.Errorf("%d close-set pings in flight at most, want 2..%d", most, closeSetPingWorkers)
	}
}

// TestCloseSetPingBudget: a close-set ping carries a budget of twice
// LatT, and a candidate surrogate whose one-way latency is that budget
// never sees the ping. RefreshCloseSet returns exactly when the budget
// runs out, leaves that candidate out, and leaves no task behind: once
// RunTask returns, the goroutine count is back to where it started.
func TestCloseSetPingBudget(t *testing.T) {
	const bsOneWay, fastOneWay = 5 * time.Millisecond, 20 * time.Millisecond
	params := testParams()
	budget := 2 * params.LatT
	clk := sim.NewClock()
	tap := &pingTap{from: "h1", to: "h3"}
	base := runtime.NumGoroutine()
	clk.RunTask(func() {
		d := Deploy(t, DeployConfig{
			Clock: clk,
			Latency: func(from, to transport.Addr) time.Duration {
				switch {
				case from == "bs" || to == "bs":
					return bsOneWay
				case from+to == "h1h3" || from+to == "h3h1":
					return budget
				}
				return fastOneWay
			},
			Wrap:   func(tr transport.Transport) transport.Transport { tap.Transport = tr; return tap },
			Params: params,
			Hosts:  []DeployHost{{Addr: "h3", IP: "10.30.0.1"}, {Addr: "h2", IP: "10.10.0.1"}, {Addr: "h1", IP: "10.100.0.1"}},
		})
		h1 := d.Nodes[2]
		tap.sent.Store(0)
		start := clk.Now()
		if err := h1.RefreshCloseSet(); err != nil {
			t.Fatal(err)
		}
		if got, want := clk.Now()-start, 2*bsOneWay+budget; got != want {
			t.Errorf("RefreshCloseSet took %v of virtual time, want %v (the bootstrap round trip, then the ping budget)", got, want)
		}
		if tap.sent.Load() != 1 {
			t.Fatalf("h1 pinged h3 %d times in its refresh, want once: the slow candidate was never tried", tap.sent.Load())
		}
		set, _ := h1.CloseSet()
		var keys []string
		for _, e := range set {
			keys = append(keys, e.ClusterKey)
		}
		if !slices.Equal(keys, []string{"10.10.0.0/16"}) {
			t.Errorf("h1's close set holds %v, want h2's cluster alone", keys)
		}
	})
	if n := tap.served.Load(); n != 0 {
		t.Errorf("h3's handler ran %d pings from h1, want 0: a ping past its budget is dropped in transit", n)
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 2000 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("goroutines: %d before RunTask, %d after: a ping task outlived its budget", base, n)
	}
}

func TestActorDirectCallWhenFast(t *testing.T) {
	d := Deploy(t, DeployConfig{Hosts: []DeployHost{{Addr: "h1", IP: "10.100.0.1"}, {Addr: "h2", IP: "10.200.0.1"}}})
	h1, h2 := d.Nodes[0], d.Nodes[1]
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
	rtt, err := nodes[0].ping(nodes[2].Addr(), 0, 0)
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
	d := Deploy(t, DeployConfig{})
	mem, bs := d.Mem, d.Bootstrap
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
	var hosts []DeployHost
	for i := 0; i < 30; i++ {
		prefix := []string{"10.100", "10.200", "10.30"}[i%3]
		hosts = append(hosts, DeployHost{Addr: transport.Addr(fmt.Sprintf("n%d", i)), IP: fmt.Sprintf("%s.0.%d", prefix, i+1)})
	}
	surrogates := 0
	for _, n := range Deploy(t, DeployConfig{Hosts: hosts}).Nodes {
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
	// h1 joins after h3, so its set holds h3's cluster.
	d := Deploy(t, DeployConfig{Hosts: []DeployHost{
		{Addr: "h3", IP: "10.30.0.1"}, {Addr: "h1", IP: "10.100.0.1"}, {Addr: "h2", IP: "10.100.0.2"},
	}})
	sur, member := d.Nodes[1], d.Nodes[2]

	own, err := sur.CloseSet()
	if err != nil || len(own) != 1 {
		t.Fatalf("surrogate close set = %v, %v; want one entry", own, err)
	}
	before := append([]transport.CloseEntry(nil), own...)
	fetched, err := member.CloseSet()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.Mem.Call(sur.Addr(), &transport.Message{Type: transport.MsgGetCloseSet, From: "probe"})
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
	d.Join(t, DeployHost{Addr: "h4", IP: "10.10.0.1"})
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
