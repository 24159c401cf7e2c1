package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// Churn tests exercise the control-plane failure duties: surrogate leases
// and CAS registration, heartbeat renewal across bootstrap restarts,
// member-side re-election after surrogate death, degraded call setup, and
// a seeded chaos soak over the in-memory transport.

// fastNodeRetry keeps churn tests quick: three attempts within ~10ms.
func fastNodeRetry() RetryPolicy {
	return RetryPolicy{Attempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Multiplier: 2}
}

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestConcurrentJoinSurrogateRace joins eight same-cluster nodes at once:
// compare-and-swap registration must elect exactly one surrogate, and
// every loser must converge on following the winner. Run with -race.
func TestConcurrentJoinSurrogateRace(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	cfg := actorBootstrapConfig()
	cfg.LeaseTTL = 200 * time.Millisecond
	bs, err := NewBootstrap(mem, "bs", cfg)
	if err != nil {
		t.Fatal(err)
	}

	const N = 8
	nodes := make([]*Node, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = NewNode(mem, transport.Addr(fmt.Sprintf("m%d", i)), NodeConfig{
				IP: fmt.Sprintf("10.100.0.%d", i+1), Bootstrap: bs.Addr(),
				Params: testParams(), Retry: fastNodeRetry(),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node m%d: %v", i, err)
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	surrogates := 0
	var winner transport.Addr
	for _, n := range nodes {
		if n.IsSurrogate() {
			surrogates++
			winner = n.Addr()
		}
	}
	if surrogates != 1 {
		t.Fatalf("%d surrogates after a concurrent join race, want exactly 1", surrogates)
	}
	for _, n := range nodes {
		if got := n.Surrogate(); got != winner {
			t.Errorf("node %s follows %q, want the race winner %q", n.Addr(), got, winner)
		}
	}
}

// TestBootstrapRestartRejoin restarts the bootstrap (losing its lease
// table) and checks that the incumbent's heartbeat re-acquires the lease,
// so later joiners adopt it instead of forking the cluster.
func TestBootstrapRestartRejoin(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	cfg := actorBootstrapConfig()
	cfg.LeaseTTL = 90 * time.Millisecond
	bs, err := NewBootstrap(mem, "bs", cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(addr transport.Addr, ip string) *Node {
		n, err := NewNode(mem, addr, NodeConfig{
			IP: ip, Bootstrap: bs.Addr(), Params: testParams(), Retry: fastNodeRetry(),
		})
		if err != nil {
			t.Fatalf("node %s: %v", addr, err)
		}
		return n
	}
	h1 := mk("h1", "10.100.0.1")
	h2 := mk("h2", "10.100.0.2")
	defer h1.Close()
	defer h2.Close()
	if !h1.IsSurrogate() || h2.IsSurrogate() {
		t.Fatal("want h1 surrogate, h2 member")
	}

	// Crash the bootstrap. Heartbeats fail; h1 must keep serving.
	mem.Unbind("bs")
	time.Sleep(150 * time.Millisecond)
	if !h1.IsSurrogate() {
		t.Fatal("surrogate must not abdicate during a bootstrap outage")
	}

	// Restart with an empty lease table at the same address.
	if _, err := NewBootstrap(mem, "bs", cfg); err != nil {
		t.Fatal(err)
	}
	// The next heartbeat re-acquires the lease on the fresh bootstrap.
	waitUntil(t, 2*time.Second, "lease re-acquisition", func() bool {
		resp, err := mem.Call("bs", &transport.Message{
			Type: transport.MsgJoin, From: "probe", IP: "10.100.0.200",
		})
		return err == nil && resp.SurrogateAddr == h1.Addr()
	})

	// A post-restart joiner adopts the incumbent.
	h3 := mk("h3", "10.100.0.3")
	defer h3.Close()
	if h3.IsSurrogate() {
		t.Error("post-restart joiner displaced the re-registered incumbent")
	}
	if got := h3.Surrogate(); got != h1.Addr() {
		t.Errorf("h3 follows %q, want %q", got, h1.Addr())
	}
	if _, err := h2.CloseSet(); err != nil {
		t.Errorf("member close set after restart: %v", err)
	}
}

// churnWorld builds the three-cluster deployment the re-election and soak
// tests share: clusters A and B are far apart (direct calls exceed LatT),
// cluster C is close to both, so relayed calls go through C's surrogate.
//
//	A: a0 (surrogate), a1    B: b0 (surrogate), b1    C: c0
//
// One-way delays: A<->B 30ms (direct RTT 60ms >= LatT 55ms); A<->C and
// B<->C 2ms (relay estimate 4+4+40 = 48ms < LatT); everything else 1ms.
type churnWorld struct {
	mem                *transport.Mem
	bs                 *Bootstrap
	a0, a1, b0, b1, c0 *Node
	nodes              []*Node
}

func newChurnWorld(t *testing.T, tr transport.Transport, mem *transport.Mem, leaseTTL time.Duration) *churnWorld {
	t.Helper()
	clusterOf := func(a transport.Addr) byte {
		if len(a) != 2 { // "bs", "probe", ...
			return 'z'
		}
		return a[0]
	}
	mem.Latency = func(from, to transport.Addr) time.Duration {
		cf, ct := clusterOf(from), clusterOf(to)
		if cf > ct {
			cf, ct = ct, cf
		}
		if cf == 'a' && ct == 'b' {
			return 30 * time.Millisecond
		}
		if (cf == 'a' || cf == 'b') && ct == 'c' {
			return 2 * time.Millisecond
		}
		return time.Millisecond
	}
	cfg := actorBootstrapConfig()
	cfg.LeaseTTL = leaseTTL
	bs, err := NewBootstrap(tr, "bs", cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &churnWorld{mem: mem, bs: bs}
	params := testParams()
	params.LatT = 55 * time.Millisecond
	mk := func(addr transport.Addr, ip string) *Node {
		n, err := NewNode(tr, addr, NodeConfig{
			IP: ip, Bootstrap: bs.Addr(), Params: params, Retry: fastNodeRetry(),
		})
		if err != nil {
			t.Fatalf("node %s: %v", addr, err)
		}
		w.nodes = append(w.nodes, n)
		return n
	}
	w.c0 = mk("c0", "10.30.0.1") // relay cluster first so A/B see it
	w.a0 = mk("a0", "10.100.0.1")
	w.a1 = mk("a1", "10.100.0.2")
	w.b0 = mk("b0", "10.200.0.1")
	w.b1 = mk("b1", "10.200.0.2")
	for _, n := range []*Node{w.c0, w.a0, w.b0} {
		if err := n.RefreshCloseSet(); err != nil {
			t.Fatalf("refresh %s: %v", n.Addr(), err)
		}
	}
	return w
}

func (w *churnWorld) close() {
	for _, n := range w.nodes {
		n.Close()
	}
}

// kill simulates a crash: stop the node's loops and unbind its address.
func (w *churnWorld) kill(n *Node) {
	n.Close()
	w.mem.Unbind(n.Addr())
}

// TestSurrogateDeathReelection kills cluster B's surrogate mid-service:
// calls toward B degrade to direct, b1 re-elects itself once the lease
// expires, and relayed call setup then succeeds through c0 again.
func TestSurrogateDeathReelection(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	w := newChurnWorld(t, mem, mem, 80*time.Millisecond)
	defer w.close()

	// Healthy baseline: a1 -> b1 relays through c0, bytes attributed to a1.
	choice, err := w.a1.SetupCall(w.b1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if choice.Relay != w.c0.Addr() || choice.Degraded {
		t.Fatalf("healthy call: relay %q degraded=%v, want relay c0", choice.Relay, choice.Degraded)
	}
	payload := []byte("pre-failure-frames")
	if err := w.a1.SendVoice(choice, w.b1.Addr(), payload, 1); err != nil {
		t.Fatal(err)
	}
	if got := w.b1.ReceivedBytesFrom(w.a1.Addr()); got != len(payload) {
		t.Fatalf("callee attributed %d bytes to a1, want %d", got, len(payload))
	}
	if w.c0.ReceivedBytes() != 0 {
		t.Fatal("relay must forward, not consume, voice payloads")
	}

	// Kill B's surrogate and let the lease expire.
	w.kill(w.b0)
	time.Sleep(100 * time.Millisecond)

	// The first call finds b1's surrogate dead: setup still succeeds,
	// degraded to direct, and triggers b1's background re-election.
	choice, err = w.a1.SetupCall(w.b1.Addr())
	if err != nil {
		t.Fatalf("call setup must degrade, not fail, after surrogate death: %v", err)
	}
	if choice.Relay != "" || !choice.Degraded {
		t.Fatalf("post-death call: relay %q degraded=%v, want direct degraded", choice.Relay, choice.Degraded)
	}
	if err := w.a1.SendVoice(choice, w.b1.Addr(), []byte("degraded"), 2); err != nil {
		t.Fatalf("degraded direct voice: %v", err)
	}

	// b1 re-elects and rebuilds the close set; relayed setup recovers.
	waitUntil(t, 3*time.Second, "b1 re-election", func() bool { return w.b1.IsSurrogate() })
	waitUntil(t, 3*time.Second, "relayed setup recovery", func() bool {
		c, err := w.a1.SetupCall(w.b1.Addr())
		return err == nil && c.Relay == w.c0.Addr() && !c.Degraded
	})
}

// TestVoiceAccountingPerSender has two callers speak to one callee over
// the same relay: the callee must attribute bytes per speaker even though
// every terminal hop arrives with FlowID 0.
func TestVoiceAccountingPerSender(t *testing.T) {
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	w := newChurnWorld(t, mem, mem, 0)
	defer w.close()

	for i, caller := range []*Node{w.a0, w.a1} {
		choice, err := caller.SetupCall(w.b1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if choice.Relay != w.c0.Addr() {
			t.Fatalf("caller %s: relay %q, want c0", caller.Addr(), choice.Relay)
		}
		payload := make([]byte, 10*(i+1))
		if err := caller.SendVoice(choice, w.b1.Addr(), payload, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.b1.ReceivedBytesFrom(w.a0.Addr()); got != 10 {
		t.Errorf("bytes from a0 = %d, want 10", got)
	}
	if got := w.b1.ReceivedBytesFrom(w.a1.Addr()); got != 20 {
		t.Errorf("bytes from a1 = %d, want 20", got)
	}
	if got := w.b1.ReceivedBytes(); got != 30 {
		t.Errorf("total bytes = %d, want 30", got)
	}
}

// TestChaosSoak runs a seeded fault storm over the in-memory transport:
// background drop probability, a bootstrap outage window, a surrogate
// crash mid-workload, and a one-shot failure burst at the relay. At least
// 95% of calls must complete (relayed, direct, or degraded), and every
// background goroutine must drain on Close.
func TestChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	mem := transport.NewMem()
	chaos := transport.NewChaos(mem, 42)
	w := newChurnWorld(t, chaos, mem, 100*time.Millisecond)

	chaos.DropDefault(0.05)

	const calls = 40
	completed, relayed, degraded := 0, 0, 0
	for i := 0; i < calls; i++ {
		switch i {
		case 10:
			chaos.OutageFor(w.bs.Addr(), 300*time.Millisecond)
		case 14:
			w.kill(w.b0)
		case 25:
			chaos.FailNext(w.c0.Addr(), 3)
		}
		choice, err := w.a1.SetupCall(w.b1.Addr())
		if err != nil {
			continue // callee unreachable this round
		}
		payload := []byte("soak-voice-frames")
		if err := w.a1.SendVoice(choice, w.b1.Addr(), payload, uint32(i)); err != nil {
			// Voice path faulted: fall back to direct, once.
			w.a1.DropFlow(choice.Relay, w.b1.Addr())
			direct := &RelayChoice{Relay: "", Degraded: true}
			if err := w.a1.SendVoice(direct, w.b1.Addr(), payload, uint32(i)); err != nil {
				continue
			}
			degraded++
		} else if choice.Relay != "" {
			relayed++
		} else if choice.Degraded {
			degraded++
		}
		completed++
		time.Sleep(5 * time.Millisecond)
	}

	if completed < calls*95/100 {
		t.Fatalf("only %d/%d calls completed under chaos (relayed %d, degraded %d), want >= 95%%",
			completed, calls, relayed, degraded)
	}
	if relayed == 0 {
		t.Error("soak never used a relay — topology or chaos config is off")
	}
	if got := w.b1.ReceivedBytesFrom(w.a1.Addr()); got == 0 {
		t.Error("callee accounted zero voice bytes from the caller")
	}
	st := chaos.Stats()
	if st.Faults() == 0 {
		t.Errorf("chaos injected no faults over %d transport calls", st.Calls)
	}
	t.Logf("soak: %d/%d completed (%d relayed, %d degraded); chaos: %+v",
		completed, calls, relayed, degraded, st)

	// Shut everything down and verify the goroutines drain.
	w.close()
	_ = mem.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
}

// restartWorld is the demo deployment on the virtual clock with a 30 s
// lease, for the restart tests below. Inside clk.RunTask a t.Fatal would
// end the root task without ending the drive loop (renewal timers keep it
// fed), so mk reports a failed join with t.Error and a nil node.
func restartWorld(t *testing.T, clk *sim.Clock, mem *transport.Mem) (mk func(addr transport.Addr, ip string) *Node, holder func() transport.Addr) {
	t.Helper()
	cfg := DemoBootstrapConfig()
	cfg.LeaseTTL = restartLeaseTTL
	cfg.Sched = clk
	bs, err := NewBootstrap(mem, "bs", cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk = func(addr transport.Addr, ip string) *Node {
		n, err := NewNode(mem, addr, NodeConfig{
			IP: ip, Bootstrap: bs.Addr(), Params: testParams(), Sched: clk, Seed: 1,
		})
		if err != nil {
			t.Errorf("node %s: %v", addr, err)
			return nil
		}
		return n
	}
	// holder asks the bootstrap who holds cluster A's lease right now.
	holder = func() transport.Addr {
		resp, err := mem.Call(bs.Addr(), &transport.Message{Type: transport.MsgJoin, From: "probe", IP: "10.100.0.200"})
		if err != nil {
			t.Errorf("lease probe: %v", err)
			return ""
		}
		return resp.SurrogateAddr
	}
	return mk, holder
}

const restartLeaseTTL = 30 * time.Second

// TestSurrogateRestartInPlace closes a cluster's only surrogate and
// rebuilds it on the same address one second later, inside its own lease
// — an asapd peer restarted on its port. The bootstrap names the joiner's
// own address as lease holder; the join must take the role back up
// (serve, renew, build a close set) rather than follow itself as a member
// with no relays, which nothing would ever correct.
func TestSurrogateRestartInPlace(t *testing.T) {
	clk := sim.NewClock()
	mem := transport.NewMem()
	mem.Sched = clk
	defer func() { _ = mem.Close() }()
	mk, holder := restartWorld(t, clk, mem)

	clk.RunTask(func() {
		first := mk("a0", "10.100.0.1")
		if first == nil {
			return
		}
		if !first.IsSurrogate() {
			t.Error("a0 is cluster A's first member and must serve it")
		}
		first.Close()
		mem.Unbind("a0")
		clk.Sleep(time.Second)

		a0, c0 := mk("a0", "10.100.0.1"), mk("c0", "10.30.0.1")
		if a0 == nil || c0 == nil {
			return
		}
		defer a0.Close()
		defer c0.Close()
		if !a0.IsSurrogate() {
			t.Errorf("restarted a0 follows %q as a plain member; it holds the lease and must serve", a0.Surrogate())
		}

		// Only a running renewal keeps the lease past its TTL.
		clk.Sleep(2 * restartLeaseTTL)
		if got := holder(); got != a0.Addr() {
			t.Errorf("lease holder after 2 x TTL is %q, want the restarted a0: its renewal is not running", got)
		}
		if a0.IsSurrogate() {
			if err := a0.RefreshCloseSet(); err != nil {
				t.Error(err)
			}
		}
		if set, err := a0.CloseSet(); err != nil || len(set) == 0 {
			t.Errorf("restarted surrogate's close set = %v (err %v), want cluster C in it", set, err)
		}
	})
}

// TestRestartUnderLiveIncumbent is the mirror case: by the time a0 comes
// back its lease ran out and a1 took the cluster over. The joiner is a
// member of a1, and a1 keeps the lease.
func TestRestartUnderLiveIncumbent(t *testing.T) {
	clk := sim.NewClock()
	mem := transport.NewMem()
	mem.Sched = clk
	defer func() { _ = mem.Close() }()
	mk, holder := restartWorld(t, clk, mem)

	clk.RunTask(func() {
		first := mk("a0", "10.100.0.1")
		if first == nil {
			return
		}
		first.Close()
		mem.Unbind("a0")
		clk.Sleep(restartLeaseTTL + time.Second)
		a1, a0 := mk("a1", "10.100.0.2"), mk("a0", "10.100.0.1")
		if a1 == nil || a0 == nil {
			return
		}
		defer a1.Close()
		defer a0.Close()
		if !a1.IsSurrogate() {
			t.Error("a1 joined a vacant cluster and must serve it")
		}
		if a0.IsSurrogate() || a0.Surrogate() != a1.Addr() {
			t.Errorf("restarted a0: surrogate=%v following %q, want a member of a1", a0.IsSurrogate(), a0.Surrogate())
		}
		clk.Sleep(2 * restartLeaseTTL)
		if got := holder(); got != a1.Addr() {
			t.Errorf("lease holder after 2 x TTL is %q, want the incumbent a1", got)
		}
		if !a1.IsSurrogate() || a0.IsSurrogate() {
			t.Errorf("roles after 2 x TTL: a1 surrogate=%v, a0 surrogate=%v", a1.IsSurrogate(), a0.IsSurrogate())
		}
	})
}

// TestDemotedSurrogateStopsServingItsCloseSet is a lease handover a
// bootstrap outage forces. Surrogate a0 of cluster A built its close set
// (cluster C only) before d0 came up in cluster D. Its lease lapses
// while the bootstrap is down; right after, joiner a3 claims the vacant
// cluster, and a0's next renewal demotes it. a0 must then stop serving
// the set it built: its member a1 re-elects once and gets a3's set (C
// and D), and a call set up toward member a2 is refused a0's old set —
// answered degraded while a2 re-elects, then from a3.
func TestDemotedSurrogateStopsServingItsCloseSet(t *testing.T) {
	clk := sim.NewClock()
	mem := transport.NewMem()
	mem.Sched = clk
	mem.Latency = func(from, to transport.Addr) time.Duration { return time.Millisecond }
	defer func() { _ = mem.Close() }()
	cfg := actorBootstrapConfig()
	cfg.LeaseTTL = restartLeaseTTL
	cfg.Sched = clk
	bs, err := NewBootstrap(mem, "bs", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	mk := func(addr transport.Addr, ip string) *Node {
		n, err := NewNode(mem, addr, NodeConfig{IP: ip, Bootstrap: bs.Addr(), Params: testParams(), Sched: clk, Seed: 1})
		if err != nil {
			t.Fatalf("node %s: %v", addr, err)
		}
		nodes = append(nodes, n)
		return n
	}
	const keyA = "10.100.0.0/16"
	callSetup := func(callee transport.Addr) *transport.Message {
		resp, err := mem.Call(callee, &transport.Message{Type: transport.MsgGetCloseSet, From: "caller"})
		if err != nil {
			t.Fatalf("call setup toward %s: %v", callee, err)
		}
		return resp
	}

	clk.RunTask(func() {
		mk("c0", "10.30.0.1")
		a0 := mk("a0", "10.100.0.1")
		a1, a2 := mk("a1", "10.100.0.2"), mk("a2", "10.100.0.3")
		mk("d0", "10.10.0.1")
		old, err := a0.CloseSet()
		if err != nil || len(old) != 1 || old[0].ClusterKey != "10.30.0.0/16" {
			t.Fatalf("a0 built %v (err %v), want cluster C alone", old, err)
		}

		mem.Unbind(bs.Addr())
		clk.Sleep(restartLeaseTTL + time.Second)
		if !a0.IsSurrogate() {
			t.Fatal("a0 must keep serving through a bootstrap outage")
		}
		if _, err := mem.Serve(bs.Addr(), bs.handle); err != nil {
			t.Fatal(err)
		}
		a3 := mk("a3", "10.100.0.4")
		if !a3.IsSurrogate() {
			t.Fatal("a3 joined a cluster whose lease lapsed and must claim it")
		}
		clk.Sleep(restartLeaseTTL / 3) // a0 renews and is demoted; C and D renew
		if a0.IsSurrogate() || a0.Surrogate() != a3.Addr() {
			t.Fatalf("a0: surrogate=%v following %q, want a member of a3", a0.IsSurrogate(), a0.Surrogate())
		}
		if err := a3.RefreshCloseSet(); err != nil {
			t.Fatal(err)
		}
		fresh, _ := a3.CloseSet()
		if len(fresh) != 2 {
			t.Fatalf("a3 built %v, want clusters C and D", fresh)
		}
		a0.mu.Lock()
		kept := a0.closeSet
		a0.mu.Unlock()
		if kept != nil {
			t.Errorf("demoted a0 still holds the close set %v", kept)
		}
		_, err = mem.Call(a0.Addr(), &transport.Message{Type: transport.MsgGetCloseSet, From: "probe", ClusterKey: keyA})
		if err == nil || transport.IsTransient(err) {
			t.Errorf("demoted a0 asked for cluster A's set: err %v, want a refusal no retry repeats", err)
		}

		if resp := callSetup(a2.Addr()); slices.Equal(resp.CloseSet, old) || !resp.Degraded {
			t.Errorf("call setup toward a2 answered %v (degraded %v), want a degraded empty set, not a0's old one", resp.CloseSet, resp.Degraded)
		}
		got, err := a1.CloseSet()
		if err != nil || !slices.Equal(got, fresh) {
			t.Errorf("a1 fetched %v (err %v), want a3's set %v", got, err, fresh)
		}
		if a1.Surrogate() != a3.Addr() {
			t.Errorf("a1 follows %q after one re-election, want a3", a1.Surrogate())
		}
		clk.Sleep(time.Second) // a2's background re-election
		if resp := callSetup(a2.Addr()); !slices.Equal(resp.CloseSet, fresh) || resp.Degraded {
			t.Errorf("call setup toward a2 answered %v (degraded %v), want a3's set %v", resp.CloseSet, resp.Degraded, fresh)
		}
	})
}
