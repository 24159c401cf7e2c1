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
	d := Deploy(t, DeployConfig{Bootstrap: BootstrapConfig{LeaseTTL: 200 * time.Millisecond}})
	mem, bs := d.Mem, d.Bootstrap

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
	cfg := actorBootstrapConfig()
	cfg.LeaseTTL = 90 * time.Millisecond
	d := Deploy(t, DeployConfig{Bootstrap: cfg, Retry: fastNodeRetry(), Hosts: []DeployHost{
		{Addr: "h1", IP: "10.100.0.1"}, {Addr: "h2", IP: "10.100.0.2"},
	}})
	defer d.Close()
	mem, h1, h2 := d.Mem, d.Nodes[0], d.Nodes[1]
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
		holder, err := d.holder("10.100.0.200")
		return err == nil && holder == h1.Addr()
	})

	// A post-restart joiner adopts the incumbent.
	h3 := d.Join(t, DeployHost{Addr: "h3", IP: "10.100.0.3"})
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

// churnConfig is the three-cluster deployment the re-election and soak
// tests share: clusters A and B are far apart (direct calls exceed LatT),
// cluster C is close to both, so relayed calls go through C's surrogate.
//
//	A: a0 (surrogate), a1    B: b0 (surrogate), b1    C: c0
//
// The relay cluster joins first so A and B see it, and every surrogate
// rebuilds its close set after the joins. Nodes holds abcHosts' nodes in
// their order. A nil clk runs it on wall time; wrap decorates its
// transport.
func churnConfig(clk *sim.Clock, leaseTTL time.Duration, wrap func(transport.Transport) transport.Transport) DeployConfig {
	params := testParams()
	params.LatT = 55 * time.Millisecond
	return DeployConfig{
		Clock: clk, Latency: abcLatency, Wrap: wrap,
		Bootstrap: BootstrapConfig{LeaseTTL: leaseTTL},
		Params:    params, Retry: fastNodeRetry(),
		Hosts:   abcHosts(),
		Refresh: true,
	}
}

// abcHosts are the churn deployment's hosts in join order: c0, a0, a1,
// b0, b1.
func abcHosts() []DeployHost {
	return []DeployHost{
		{Addr: "c0", IP: "10.30.0.1"}, {Addr: "a0", IP: "10.100.0.1"}, {Addr: "a1", IP: "10.100.0.2"},
		{Addr: "b0", IP: "10.200.0.1"}, {Addr: "b1", IP: "10.200.0.2"},
	}
}

// abcLatency is the one-way delay between nodes named by cluster letter
// and number: A<->B 30ms (direct RTT 60ms >= LatT 55ms); A<->C and B<->C
// 2ms (relay estimate 4+4+40 = 48ms < LatT); 1ms for everything else,
// the bootstrap and any address not two characters long included.
func abcLatency(from, to transport.Addr) time.Duration {
	clusterOf := func(a transport.Addr) byte {
		if len(a) != 2 { // "bs", "probe", ...
			return 'z'
		}
		return a[0]
	}
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

// ReceivedBytesFrom reports how many voice payload bytes this node has
// accepted from one sending peer.
func (n *Node) ReceivedBytesFrom(peer transport.Addr) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.received[peer]
}

// TestSurrogateDeathReelection kills cluster B's surrogate mid-service:
// calls toward B degrade to direct, b1 re-elects itself once the lease
// expires, and relayed call setup then succeeds through c0 again.
func TestSurrogateDeathReelection(t *testing.T) {
	d := Deploy(t, churnConfig(nil, 80*time.Millisecond, nil))
	defer d.Close()
	c0, a1, b0, b1 := d.Nodes[0], d.Nodes[2], d.Nodes[3], d.Nodes[4]

	// Healthy baseline: a1 -> b1 relays through c0, bytes attributed to a1.
	choice, err := a1.SetupCall(b1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if choice.Relay != c0.Addr() || choice.Degraded {
		t.Fatalf("healthy call: relay %q degraded=%v, want relay c0", choice.Relay, choice.Degraded)
	}
	payload := []byte("pre-failure-frames")
	if err := a1.SendVoice(choice, b1.Addr(), payload, 1); err != nil {
		t.Fatal(err)
	}
	if got := b1.ReceivedBytesFrom(a1.Addr()); got != len(payload) {
		t.Fatalf("callee attributed %d bytes to a1, want %d", got, len(payload))
	}
	if c0.ReceivedBytes() != 0 {
		t.Fatal("relay must forward, not consume, voice payloads")
	}

	// Kill B's surrogate and let the lease expire.
	d.Kill(b0)
	time.Sleep(100 * time.Millisecond)

	// The first call finds b1's surrogate dead: setup still succeeds,
	// degraded to direct, and triggers b1's background re-election.
	choice, err = a1.SetupCall(b1.Addr())
	if err != nil {
		t.Fatalf("call setup must degrade, not fail, after surrogate death: %v", err)
	}
	if choice.Relay != "" || !choice.Degraded {
		t.Fatalf("post-death call: relay %q degraded=%v, want direct degraded", choice.Relay, choice.Degraded)
	}
	if err := a1.SendVoice(choice, b1.Addr(), []byte("degraded"), 2); err != nil {
		t.Fatalf("degraded direct voice: %v", err)
	}

	// b1 re-elects and rebuilds the close set; relayed setup recovers.
	waitUntil(t, 3*time.Second, "b1 re-election", func() bool { return b1.IsSurrogate() })
	waitUntil(t, 3*time.Second, "relayed setup recovery", func() bool {
		c, err := a1.SetupCall(b1.Addr())
		return err == nil && c.Relay == c0.Addr() && !c.Degraded
	})
}

// TestVoiceAccountingPerSender has two callers speak to one callee over
// the same relay: the callee must attribute bytes per speaker even though
// every terminal hop arrives with FlowID 0.
func TestVoiceAccountingPerSender(t *testing.T) {
	d := Deploy(t, churnConfig(nil, 0, nil))
	defer d.Close()
	c0, a0, a1, b1 := d.Nodes[0], d.Nodes[1], d.Nodes[2], d.Nodes[4]

	for i, caller := range []*Node{a0, a1} {
		choice, err := caller.SetupCall(b1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if choice.Relay != c0.Addr() {
			t.Fatalf("caller %s: relay %q, want c0", caller.Addr(), choice.Relay)
		}
		payload := make([]byte, 10*(i+1))
		if err := caller.SendVoice(choice, b1.Addr(), payload, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := b1.ReceivedBytesFrom(a0.Addr()); got != 10 {
		t.Errorf("bytes from a0 = %d, want 10", got)
	}
	if got := b1.ReceivedBytesFrom(a1.Addr()); got != 20 {
		t.Errorf("bytes from a1 = %d, want 20", got)
	}
	if got := b1.ReceivedBytes(); got != 30 {
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

	var chaos *transport.Chaos
	d := Deploy(t, churnConfig(nil, 100*time.Millisecond, func(tr transport.Transport) transport.Transport {
		chaos = transport.NewChaos(tr, 42)
		return chaos
	}))
	c0, a1, b0, b1 := d.Nodes[0], d.Nodes[2], d.Nodes[3], d.Nodes[4]

	chaos.DropDefault(0.05)

	const calls = 40
	completed, relayed, degraded := 0, 0, 0
	for i := 0; i < calls; i++ {
		switch i {
		case 10:
			chaos.OutageFor(d.Bootstrap.Addr(), 300*time.Millisecond)
		case 14:
			d.Kill(b0)
		case 25:
			chaos.FailNext(c0.Addr(), 3)
		}
		choice, err := a1.SetupCall(b1.Addr())
		if err != nil {
			continue // callee unreachable this round
		}
		payload := []byte("soak-voice-frames")
		if err := a1.SendVoice(choice, b1.Addr(), payload, uint32(i)); err != nil {
			// Voice path faulted: fall back to direct, once.
			a1.DropFlow(choice.Relay, b1.Addr())
			direct := &RelayChoice{Relay: "", Degraded: true}
			if err := a1.SendVoice(direct, b1.Addr(), payload, uint32(i)); err != nil {
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
	if got := b1.ReceivedBytesFrom(a1.Addr()); got == 0 {
		t.Error("callee accounted zero voice bytes from the caller")
	}
	st := chaos.Stats()
	if st.Faults() == 0 {
		t.Errorf("chaos injected no faults over %d transport calls", st.Calls)
	}
	t.Logf("soak: %d/%d completed (%d relayed, %d degraded); chaos: %+v",
		completed, calls, relayed, degraded, st)

	// Shut everything down and verify the goroutines drain.
	d.Close()
	_ = d.Mem.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
}

// The churn workload: calls placed one after another from a1 to b1 while
// a seeded fault schedule runs — 2% background drop, a bootstrap outage
// at call churnOutageAt, and b0 (B's surrogate) killed before call
// churnKillAt.
const (
	churnCalls     = 20
	churnOutageAt  = 3
	churnOutage    = 150 * time.Millisecond
	churnKillAt    = 7
	churnCallGap   = 5 * time.Millisecond
	churnLeaseTTL  = 120 * time.Millisecond
	churnDrop      = 0.02
	churnChaosSeed = 1
)

// churnArm is what one lease policy delivered over the churn workload.
type churnArm struct {
	// Completed counts calls that delivered voice (relayed, direct or
	// degraded-direct); Degraded those that fell back to direct on a
	// control-plane or voice-path failure.
	Completed, Degraded int
	// Relayed counts calls that delivered voice through a relay;
	// RelayedAfterKill those placed after the kill — the recovery signal.
	Relayed, RelayedAfterKill int
	// Reelected reports whether b1 took over cluster B within the
	// workload; ReelectLatency is the time from the kill to the first
	// observation of it.
	Reelected      bool
	ReelectLatency time.Duration
}

func (a churnArm) successRate() float64 { return float64(a.Completed) / churnCalls }

// runChurnArm runs the churn workload with surrogate lease leaseTTL (0:
// registrations never expire) entirely on a virtual clock, so the arm's
// measurements are a function of the seed.
func runChurnArm(t *testing.T, leaseTTL time.Duration) churnArm {
	t.Helper()
	clk := sim.NewClock()
	var chaos *transport.Chaos
	var arm churnArm
	clk.RunTask(func() {
		d := Deploy(t, churnConfig(clk, leaseTTL, func(tr transport.Transport) transport.Transport {
			chaos = transport.NewChaos(tr, churnChaosSeed)
			chaos.Sched = clk
			chaos.DropDefault(churnDrop)
			return chaos
		}))
		defer d.Close()
		a1, b0, b1 := d.Nodes[2], d.Nodes[3], d.Nodes[4]
		const notKilled = time.Duration(-1)
		killedAt := notKilled
		observe := func() {
			if killedAt != notKilled && !arm.Reelected && b1.IsSurrogate() {
				arm.Reelected, arm.ReelectLatency = true, clk.Now()-killedAt
			}
		}
		payload := []byte("churn-voice-frames")
		for i := 0; i < churnCalls; i++ {
			switch i {
			case churnOutageAt:
				chaos.OutageFor(d.Bootstrap.Addr(), churnOutage)
			case churnKillAt:
				d.Kill(b0)
				killedAt = clk.Now()
			}
			if choice, err := a1.SetupCall(b1.Addr()); err == nil {
				if err := a1.SendVoice(choice, b1.Addr(), payload, uint32(i)); err != nil {
					// Voice path faulted mid-call: drop the dead relay flow and
					// retry once on the direct path.
					a1.DropFlow(choice.Relay, b1.Addr())
					if err := a1.SendVoice(&RelayChoice{}, b1.Addr(), payload, uint32(i)); err == nil {
						arm.Completed++
						arm.Degraded++
					}
				} else {
					arm.Completed++
					switch {
					case choice.Relay != "":
						arm.Relayed++
						if killedAt != notKilled {
							arm.RelayedAfterKill++
						}
					case choice.Degraded:
						arm.Degraded++
					}
				}
			}
			observe()
			clk.Sleep(churnCallGap)
		}
		observe() // a re-election after the last call still counts
	})
	return arm
}

// TestChurnLeaseVsNoLease runs the churn workload under both lease
// policies: with a lease, cluster B re-elects b1 after the kill and
// relayed call setup recovers; without one, the bootstrap hands out the
// dead b0 forever. Both arms must keep completing calls (degradation,
// not failure).
func TestChurnLeaseVsNoLease(t *testing.T) {
	lease, nolease := runChurnArm(t, churnLeaseTTL), runChurnArm(t, 0)
	t.Logf("lease(%s): %+v", churnLeaseTTL, lease)
	t.Logf("no-lease: %+v", nolease)

	if !lease.Reelected {
		t.Error("lease arm never re-elected a surrogate")
	}
	if lease.Reelected && lease.ReelectLatency <= 0 {
		t.Error("lease arm re-elected with non-positive latency")
	}
	if lease.RelayedAfterKill == 0 {
		t.Error("lease arm never recovered relayed call setup after the kill")
	}
	if nolease.Reelected {
		t.Error("no-lease arm re-elected — expiry should be impossible with TTL 0")
	}
	if nolease.RelayedAfterKill != 0 {
		t.Error("no-lease arm relayed after the kill despite the dead incumbent")
	}
	if got := lease.successRate(); got < 0.8 {
		t.Errorf("lease arm success rate %.2f, want >= 0.8", got)
	}
	if got := nolease.successRate(); got < 0.8 {
		t.Errorf("no-lease arm success rate %.2f (degradation must keep calls alive), want >= 0.8", got)
	}
}

// TestChurnVirtualTimeDeterministic reruns both churn arms: on the
// virtual clock a seed fixes the transport latency, chaos windows,
// leases, retries and every measurement, so reruns must agree exactly,
// and with the readings pinned here: a change that shifts any timing of
// the workload moves them.
func TestChurnVirtualTimeDeterministic(t *testing.T) {
	run := func() [2]churnArm { return [2]churnArm{runChurnArm(t, churnLeaseTTL), runChurnArm(t, 0)} }
	golden := run()
	pinned := [2]churnArm{
		{Completed: 20, Degraded: 2, Relayed: 18, RelayedAfterKill: 11, Reelected: true, ReelectLatency: 182 * time.Millisecond},
		{Completed: 19, Degraded: 12, Relayed: 7},
	}
	if golden != pinned {
		t.Errorf("churn arms (lease, no lease):\ngot    %+v\npinned %+v", golden, pinned)
	}
	for i := 0; i < 2; i++ {
		if got := run(); got != golden {
			t.Fatalf("churn rerun %d diverged:\ngolden %+v\nrerun  %+v", i, golden, got)
		}
	}
}

// restartConfig is the demo deployment on clk with a 30 s lease, for the
// restart tests below: a0, the first member of cluster A, joins alone.
func restartConfig(clk *sim.Clock) DeployConfig {
	cfg := DemoBootstrapConfig()
	cfg.LeaseTTL = restartLeaseTTL
	return DeployConfig{Clock: clk, Bootstrap: cfg, Hosts: []DeployHost{{Addr: "a0", IP: "10.100.0.1"}}}
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
	clk.RunTask(func() {
		d := Deploy(t, restartConfig(clk))
		defer d.Close()
		first := d.Nodes[0]
		if !first.IsSurrogate() {
			t.Error("a0 is cluster A's first member and must serve it")
		}
		d.Kill(first)
		clk.Sleep(time.Second)

		a0 := d.Join(t, DeployHost{Addr: "a0", IP: "10.100.0.1"})
		d.Join(t, DeployHost{Addr: "c0", IP: "10.30.0.1"})
		if !a0.IsSurrogate() {
			t.Errorf("restarted a0 follows %q as a plain member; it holds the lease and must serve", a0.Surrogate())
		}

		// Only a running renewal keeps the lease past its TTL.
		clk.Sleep(2 * restartLeaseTTL)
		if got, err := d.holder("10.100.0.200"); err != nil || got != a0.Addr() {
			t.Errorf("lease holder after 2 x TTL is %q (err %v), want the restarted a0: its renewal is not running", got, err)
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
	clk.RunTask(func() {
		d := Deploy(t, restartConfig(clk))
		defer d.Close()
		d.Kill(d.Nodes[0])
		clk.Sleep(restartLeaseTTL + time.Second)
		a1, a0 := d.Join(t, DeployHost{Addr: "a1", IP: "10.100.0.2"}), d.Join(t, DeployHost{Addr: "a0", IP: "10.100.0.1"})
		if !a1.IsSurrogate() {
			t.Error("a1 joined a vacant cluster and must serve it")
		}
		if a0.IsSurrogate() || a0.Surrogate() != a1.Addr() {
			t.Errorf("restarted a0: surrogate=%v following %q, want a member of a1", a0.IsSurrogate(), a0.Surrogate())
		}
		clk.Sleep(2 * restartLeaseTTL)
		if got, err := d.holder("10.100.0.200"); err != nil || got != a1.Addr() {
			t.Errorf("lease holder after 2 x TTL is %q (err %v), want the incumbent a1", got, err)
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
	const keyA = "10.100.0.0/16"
	clk := sim.NewClock()
	clk.RunTask(func() {
		d := Deploy(t, DeployConfig{
			Clock:     clk,
			Latency:   func(from, to transport.Addr) time.Duration { return time.Millisecond },
			Bootstrap: BootstrapConfig{LeaseTTL: restartLeaseTTL},
			Hosts: []DeployHost{
				{Addr: "c0", IP: "10.30.0.1"}, {Addr: "a0", IP: "10.100.0.1"}, {Addr: "a1", IP: "10.100.0.2"},
				{Addr: "a2", IP: "10.100.0.3"}, {Addr: "d0", IP: "10.10.0.1"},
			},
		})
		defer d.Close()
		mem, bs := d.Mem, d.Bootstrap
		a0, a1, a2 := d.Nodes[1], d.Nodes[2], d.Nodes[3]
		callSetup := func(callee transport.Addr) *transport.Message {
			resp, err := mem.Call(callee, &transport.Message{Type: transport.MsgGetCloseSet, From: "caller"})
			if err != nil {
				t.Fatalf("call setup toward %s: %v", callee, err)
			}
			return resp
		}
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
		a3 := d.Join(t, DeployHost{Addr: "a3", IP: "10.100.0.4"})
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
