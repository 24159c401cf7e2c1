package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"asap/internal/cluster"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/transport"
)

// These tests pin SetupCall's one-hop selection on the virtual clock: the
// admission rule over the merged close sets, the (estimate, key) ranking,
// what a caller does with a close set that arrives out of order, and the
// key order every close set travels in.

const ms = time.Millisecond

// relayKeys are the three relay clusters of setupDeploy, in key order, and
// their surrogates.
var relayKeys = []struct {
	key  string
	addr transport.Addr
	ip   string
}{
	{"10.10.0.0/16", "r10", "10.10.0.1"},
	{"10.20.0.0/16", "r20", "10.20.0.1"},
	{"10.30.0.0/16", "r30", "10.30.0.1"},
}

// setupDeploy joins the three relay surrogates, then caller "c"
// (10.100/16) and callee "d" (10.200/16), on a virtual clock, with a
// 400 ms direct RTT and LatT 300 ms. callerRTT and calleeRTT give each
// end's round trip to each relay, in relayKeys order; bootstrap links are
// free. Every surrogate rebuilds its close set once all have joined.
func setupDeploy(t *testing.T, callerRTT, calleeRTT [3]time.Duration) *Deployment {
	oneWay := map[[2]transport.Addr]time.Duration{{"c", "d"}: 200 * ms}
	hosts := make([]DeployHost, 0, len(relayKeys)+2)
	for i, r := range relayKeys {
		oneWay[[2]transport.Addr{"c", r.addr}] = callerRTT[i] / 2
		oneWay[[2]transport.Addr{"d", r.addr}] = calleeRTT[i] / 2
		hosts = append(hosts, DeployHost{Addr: r.addr, IP: r.ip})
	}
	params := testParams()
	params.LatT = 300 * ms
	return deployTask(t, DeployConfig{
		Clock: sim.NewClock(),
		Latency: func(from, to transport.Addr) time.Duration {
			if d, ok := oneWay[[2]transport.Addr{from, to}]; ok {
				return d
			}
			return oneWay[[2]transport.Addr{to, from}]
		},
		Params:  params,
		Hosts:   append(hosts, DeployHost{Addr: "c", IP: "10.100.0.1"}, DeployHost{Addr: "d", IP: "10.200.0.1"}),
		Refresh: true,
	})
}

// TestSetupCallAdmissionIsOrderIndependent pins the admission rule: with
// the direct path at 400 ms, every relay estimated under it is admitted
// and ranked by (estimate, cluster key). A rule that admits against the
// running minimum of the estimates seen so far, in key order, drops the
// 380 ms relay, which follows a better one in key order, although it
// beats the direct path.
func TestSetupCallAdmissionIsOrderIndependent(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		callerRTT, calleeRTT [3]time.Duration // estimate = caller + callee + RelayRTT
		want                 []RelayCandidate
	}{{
		name:      "estimates 350/380/320 in key order",
		callerRTT: [3]time.Duration{150 * ms, 170 * ms, 140 * ms},
		calleeRTT: [3]time.Duration{160 * ms, 170 * ms, 140 * ms},
		want:      []RelayCandidate{{Relay: "r30", Est: 320 * ms}, {Relay: "r10", Est: 350 * ms}, {Relay: "r20", Est: 380 * ms}},
	}, {
		name:      "a two-way tie at the minimum goes to the lower key",
		callerRTT: [3]time.Duration{140 * ms, 170 * ms, 140 * ms},
		calleeRTT: [3]time.Duration{140 * ms, 170 * ms, 140 * ms},
		want:      []RelayCandidate{{Relay: "r10", Est: 320 * ms}, {Relay: "r30", Est: 320 * ms}, {Relay: "r20", Est: 380 * ms}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			if overlay.RelayRTT != 40*ms {
				t.Fatalf("the estimates assume a 40 ms relay delay, not %v", overlay.RelayRTT)
			}
			d := setupDeploy(t, tc.callerRTT, tc.calleeRTT)
			caller, callee := d.Nodes[3], d.Nodes[4]
			var choice *RelayChoice
			var err error
			d.Clock.RunTask(func() { choice, err = caller.SetupCall(callee.Addr()) })
			if err != nil {
				t.Fatal(err)
			}
			if choice.Direct != 400*ms {
				t.Fatalf("direct = %v, want 400ms", choice.Direct)
			}
			if !slices.Equal(choice.Ranked, tc.want) {
				t.Fatalf("ranked = %v (%d candidates), want %v", choice.Ranked, choice.Candidates, tc.want)
			}
			if choice.Candidates != len(tc.want) {
				t.Errorf("candidates = %d, want %d admitted", choice.Candidates, len(tc.want))
			}
			if choice.Relay != tc.want[0].Relay || choice.EstRTT != tc.want[0].Est || choice.Ranked[0].Relay != choice.Relay {
				t.Errorf("relay %q at %v, Ranked[0] %v; want %q at %v", choice.Relay, choice.EstRTT, choice.Ranked[0], tc.want[0].Relay, tc.want[0].Est)
			}
		})
	}
}

// TestSetupCallMergesAnUnsortedReplySorted has scripted callees answer
// the unkeyed MsgGetCloseSet of call setup with one close set, once in key order and once reversed
// with a key duplicated. A merge over the raw reply would find almost
// nothing; the caller must reach the same choice from both, and must not
// sort the callee's set in place: over Mem the reply is the slice the
// callee publishes (read here concurrently, for the race detector).
func TestSetupCallMergesAnUnsortedReplySorted(t *testing.T) {
	calleeRTT := [3]time.Duration{160 * ms, 170 * ms, 140 * ms}
	d := setupDeploy(t, [3]time.Duration{150 * ms, 170 * ms, 140 * ms}, calleeRTT)
	mem, caller := d.Mem, d.Nodes[3]
	var sorted []transport.CloseEntry
	for i, r := range relayKeys {
		sorted = append(sorted, transport.CloseEntry{ClusterKey: r.key, SurrogateAddr: r.addr, RTT: calleeRTT[i]})
	}
	messy := slices.Clone(sorted)
	slices.Reverse(messy)
	messy = slices.Insert(messy, 1, messy[1])
	snapshot := slices.Clone(messy)

	// The scripted callees answer as the world's callee "d" would, from
	// its place in the latency table.
	script := func(set []transport.CloseEntry) transport.Handler {
		return func(_ transport.Addr, req *transport.Message) (*transport.Message, error) {
			if req.Type == transport.MsgPing {
				return &transport.Message{Type: transport.MsgPong, SentAt: req.SentAt}, nil
			}
			return &transport.Message{Type: transport.MsgGetCloseSetReply, CloseSet: set}, nil
		}
	}
	for addr, set := range map[transport.Addr][]transport.CloseEntry{"sorted": sorted, "messy": messy} {
		if _, err := mem.Serve(addr, script(set)); err != nil {
			t.Fatal(err)
		}
	}
	asCallee := func(a transport.Addr) transport.Addr {
		if a == "sorted" || a == "messy" {
			return "d"
		}
		return a
	}
	latency := mem.Latency
	mem.Latency = func(from, to transport.Addr) time.Duration { return latency(asCallee(from), asCallee(to)) }

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !slices.Equal(messy, snapshot) {
				t.Error("the callee's published set changed during call set-up")
				return
			}
		}
	}()
	var want, got *RelayChoice
	var err1, err2 error
	d.Clock.RunTask(func() {
		want, err1 = caller.SetupCall("sorted")
		got, err2 = caller.SetupCall("messy")
	})
	close(stop)
	<-done
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if want.Candidates != 3 || want.Relay != "r30" {
		t.Fatalf("sorted reply: relay %q with %d candidates, want r30 with 3", want.Relay, want.Candidates)
	}
	if got.Relay != want.Relay || got.EstRTT != want.EstRTT || got.Candidates != want.Candidates || !slices.Equal(got.Ranked, want.Ranked) {
		t.Errorf("unsorted reply chose %+v, want the sorted reply's %+v", got, want)
	}
	if !slices.Equal(messy, snapshot) {
		t.Errorf("the callee's published set was modified: %v, was %v", messy, snapshot)
	}
}

// keysAscend reports whether a close set's cluster keys strictly ascend.
func keysAscend(set []transport.CloseEntry) bool {
	for i := 1; i < len(set); i++ {
		if set[i-1].ClusterKey >= set[i].ClusterKey {
			return false
		}
	}
	return true
}

// servedSorted reports whether a served close set is in the order the
// merge needs: keys strictly ascending, so SetupCall merges the set itself
// rather than a sorted copy.
func servedSorted(set []transport.CloseEntry) bool {
	return keysAscend(set) && len(set) > 0 && &sortedByKey(set)[0] == &set[0]
}

// TestCloseSetsTravelSortedByKey pins the order the merge relies on: every
// set a surrogate serves after RefreshCloseSet, and every close set a
// member relays for its surrogate, has strictly ascending cluster keys,
// and call setup takes it as it is. The bootstrap gathers surrogates by
// walking a map, so only its sort puts them in order.
func TestCloseSetsTravelSortedByKey(t *testing.T) {
	clk := sim.NewClock()
	clk.RunTask(func() {
		var hosts []DeployHost
		for _, ip := range []string{"10.30.0.1", "10.200.0.1", "10.10.0.1", "10.100.0.1", "10.20.0.1", "10.100.0.2"} {
			hosts = append(hosts, DeployHost{Addr: transport.Addr(ip), IP: ip})
		}
		d := Deploy(t, DeployConfig{
			Clock:   clk,
			Latency: func(from, to transport.Addr) time.Duration { return 5 * ms },
			Hosts:   hosts,
		})
		mem := d.Mem
		for _, s := range d.Nodes {
			if !s.IsSurrogate() {
				continue
			}
			if err := s.RefreshCloseSet(); err != nil {
				t.Fatal(err)
			}
			set, _ := s.CloseSet()
			resp, err := mem.Call(s.Addr(), &transport.Message{Type: transport.MsgGetCloseSet, From: "probe"})
			if err != nil {
				t.Fatal(err)
			}
			if len(set) < 3 || !servedSorted(set) || !servedSorted(resp.CloseSet) {
				t.Errorf("surrogate %s serves %v (fetched %v), want at least three peers in key order", s.Addr(), set, resp.CloseSet)
			}
		}
		resp, err := mem.Call("10.100.0.2", &transport.Message{Type: transport.MsgGetCloseSet, From: "probe"})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.CloseSet) != 3 || !servedSorted(resp.CloseSet) {
			t.Errorf("member relays %v, want its surrogate's three peers in key order", resp.CloseSet)
		}
	})
}

// TestMergeCloseAllocs is the kernel's row of the allocation gate: with
// room in its output it allocates nothing, for System's sets and for the
// wire's.
func TestMergeCloseAllocs(t *testing.T) {
	var a, b []CloseCluster
	var wa, wb []transport.CloseEntry
	for c := cluster.ClusterID(0); c < 64; c++ {
		a = append(a, CloseCluster{Cluster: 2 * c, RTT: time.Duration(c) * ms})
		b = append(b, CloseCluster{Cluster: 3 * c, RTT: time.Duration(c) * ms})
	}
	for _, e := range a {
		wa = append(wa, transport.CloseEntry{ClusterKey: fmt.Sprintf("k%03d", e.Cluster), RTT: e.RTT})
	}
	for _, e := range b {
		wb = append(wb, transport.CloseEntry{ClusterKey: fmt.Sprintf("k%03d", e.Cluster), RTT: e.RTT})
	}
	out := make([]OneHopCandidate, 0, len(a))
	wout := make([]RelayCandidate, 0, len(wa))
	var n, wn int
	allocs := testing.AllocsPerRun(200, func() {
		out = out[:0]
		mergeClose(a, b, clusterLeg, overlay.RelayRTT, time.Second, func(i int, est time.Duration) {
			out = append(out, OneHopCandidate{Cluster: a[i].Cluster, EstRTT: est})
		}, 0, 6)
		wout = wout[:0]
		mergeClose(wa, wb, wireLeg, overlay.RelayRTT, time.Second, func(i int, est time.Duration) {
			wout = append(wout, RelayCandidate{Relay: wa[i].SurrogateAddr, Est: est})
		})
		n, wn = len(out), len(wout)
	})
	if allocs != 0 {
		t.Errorf("mergeClose allocates %.1f per run with room in its output, want 0", allocs)
	}
	// Shared clusters are the multiples of 6 under 128: 22, less the two
	// skipped (0 and 6) on System's side. Estimates stay under a second.
	if n != 20 || wn != 22 {
		t.Errorf("merged %d System and %d wire entries, want 20 and 22", n, wn)
	}
}

// TestRankedRelaysAllocs: SetupCall's ranking allocates its result once,
// at its final length, and nothing when no relay is admitted; the
// ranking is every shared key under the limit, by estimate, then key.
func TestRankedRelaysAllocs(t *testing.T) {
	var ours, theirs []transport.CloseEntry
	for c := range 64 {
		// Estimates fall in runs of equal value, so the key breaks ties.
		ours = append(ours, transport.CloseEntry{ClusterKey: fmt.Sprintf("k%03d", 2*c), RTT: time.Duration(c%5) * ms, SurrogateAddr: transport.Addr(fmt.Sprintf("s%03d:1", 2*c))})
		theirs = append(theirs, transport.CloseEntry{ClusterKey: fmt.Sprintf("k%03d", 3*c), RTT: time.Duration(c%3) * ms})
	}
	var ranked []RelayCandidate
	if allocs := testing.AllocsPerRun(200, func() { ranked = rankedRelays(ours, theirs, time.Second) }); allocs != 1 {
		t.Errorf("rankedRelays allocates %.1f per run, want 1 (the result)", allocs)
	}
	if len(ranked) != 22 || cap(ranked) != len(ranked) {
		t.Errorf("ranked %d relays in a slice of cap %d, want 22 in 22", len(ranked), cap(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if a, b := ranked[i-1], ranked[i]; a.Est > b.Est || a.Est == b.Est && a.Relay >= b.Relay {
			t.Fatalf("ranked[%d:%d] = %v, %v: not by estimate, then key", i-1, i+1, a, b)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { ranked = rankedRelays(ours, theirs, overlay.RelayRTT) }); allocs != 0 || ranked != nil {
		t.Errorf("with no relay admitted: %.1f allocs, ranked %v; want 0 and nil", allocs, ranked)
	}
}
