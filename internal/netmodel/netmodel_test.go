package netmodel

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/cluster"
	"asap/internal/sim"
)

func testModel(t testing.TB, ases, hosts int, seed int64, cfg Config) (*Model, *sim.RNG) {
	t.Helper()
	rng := sim.NewRNG(seed)
	g, err := asgraph.Generate(asgraph.DefaultGenConfig(ases), rng)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := bgp.Allocate(g, bgp.DefaultAllocConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := cluster.Generate(alloc, cluster.DefaultGenConfig(hosts), rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, asgraph.NewRouter(g, 0), pop, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m, rng
}

// ResetConditions removes every injected impairment and drops the
// cluster-pair cache, returning the model to its post-New baseline minus
// the randomly injected congestion. Used by tests that interleave cache
// drops with concurrent lookups.
func (m *Model) ResetConditions() {
	m.condMu.Lock()
	defer m.condMu.Unlock()
	m.publishLocked(make([]Condition, m.g.NumNodes()))
}

func TestHostRTTProperties(t *testing.T) {
	m, rng := testModel(t, 300, 2000, 60, DefaultConfig())
	pop := m.Population()
	for i := 0; i < 300; i++ {
		a := cluster.HostID(rng.Intn(pop.NumHosts()))
		b := cluster.HostID(rng.Intn(pop.NumHosts()))
		r1, ok1 := m.HostRTT(a, b)
		r2, ok2 := m.HostRTT(b, a)
		if ok1 != ok2 || r1 != r2 {
			t.Fatalf("RTT not symmetric: %v,%v vs %v,%v", r1, ok1, r2, ok2)
		}
		if !ok1 {
			continue
		}
		if a != b && r1 <= 0 {
			t.Fatalf("non-positive RTT %v for %d-%d", r1, a, b)
		}
		loss, ok := m.HostLoss(a, b)
		if !ok || loss < 0 || loss >= 1 {
			t.Fatalf("loss out of range: %v,%v", loss, ok)
		}
	}
	if r, ok := m.HostRTT(3, 3); !ok || r != 0 {
		t.Errorf("self RTT = %v,%v", r, ok)
	}
}

func TestSameClusterFasterThanCrossRegion(t *testing.T) {
	// Individual pairs can invert (access delays are heavy-tailed), so
	// compare the means over many samples.
	m, rng := testModel(t, 300, 3000, 61, DefaultConfig())
	pop := m.Population()
	var intraSum, interSum time.Duration
	intraN, interN := 0, 0
	for _, c := range pop.Clusters() {
		if len(c.Hosts) < 2 {
			continue
		}
		if r, ok := m.HostRTT(c.Hosts[0], c.Hosts[1]); ok {
			intraSum += r
			intraN++
		}
		other := pop.Cluster(cluster.ClusterID(rng.Intn(pop.NumClusters())))
		if other.ID == c.ID {
			continue
		}
		if r, ok := m.HostRTT(c.Hosts[0], other.Hosts[0]); ok {
			interSum += r
			interN++
		}
	}
	if intraN < 10 || interN < 10 {
		t.Skip("not enough samples")
	}
	intra := intraSum / time.Duration(intraN)
	inter := interSum / time.Duration(interN)
	if intra >= inter {
		t.Errorf("mean intra-cluster RTT %v >= mean inter-cluster %v (n=%d/%d)",
			intra, inter, intraN, interN)
	}
}

func TestCongestionInflatesRTT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CongestedFrac = 0
	cfg.SevereFrac = 0
	m, rng := testModel(t, 300, 1000, 62, cfg)
	pop := m.Population()

	// Find a host pair whose policy path transits some AS, then congest
	// that AS and verify RTT grows by the injected amount.
	var a, b cluster.HostID
	var mid asgraph.ASN
	for i := 0; i < 500; i++ {
		a = cluster.HostID(rng.Intn(pop.NumHosts()))
		b = cluster.HostID(rng.Intn(pop.NumHosts()))
		ha, hb := pop.Host(a), pop.Host(b)
		if ha.AS == hb.AS {
			continue
		}
		path, ok := m.Router().Path(ha.AS, hb.AS)
		if !ok || len(path) < 3 {
			continue
		}
		mid = path[1]
		break
	}
	if mid == 0 {
		t.Skip("no multi-hop pair found")
	}
	before, ok := m.HostRTT(a, b)
	if !ok {
		t.Fatal("unreachable pair")
	}
	const extra = 100 * time.Millisecond
	m.SetCondition(mid, Condition{ExtraOneWay: extra, LossRate: 0.02})
	after, ok := m.HostRTT(a, b)
	if !ok {
		t.Fatal("unreachable after congestion")
	}
	if d := after - before; d != 2*extra {
		t.Errorf("RTT grew by %v, want %v (both directions)", d, 2*extra)
	}
	loss, _ := m.HostLoss(a, b)
	if loss < 0.02 {
		t.Errorf("loss %v does not reflect congested AS", loss)
	}
	// Clearing restores.
	m.SetCondition(mid, Condition{})
	restored, _ := m.HostRTT(a, b)
	if restored != before {
		t.Errorf("clear condition: RTT %v, want %v", restored, before)
	}
}

func TestHopLatencyCorrelation(t *testing.T) {
	// Internet property (3) in Section 6: more AS hops => usually more
	// latency. Check rank correlation is clearly positive on clean paths.
	cfg := DefaultConfig()
	cfg.CongestedFrac = 0
	cfg.SevereFrac = 0
	m, rng := testModel(t, 400, 1000, 63, cfg)
	pop := m.Population()
	type sample struct {
		hops int
		rtt  time.Duration
	}
	var samples []sample
	for i := 0; i < 400; i++ {
		a := pop.Host(cluster.HostID(rng.Intn(pop.NumHosts())))
		b := pop.Host(cluster.HostID(rng.Intn(pop.NumHosts())))
		if a.AS == b.AS {
			continue
		}
		hops, ok := m.ASPathHops(a.AS, b.AS)
		if !ok {
			continue
		}
		rtt := m.asPath(a.AS, b.AS).rtt
		samples = append(samples, sample{hops, rtt})
	}
	if len(samples) < 100 {
		t.Skip("not enough connected samples")
	}
	var byHops [16][]float64
	for _, s := range samples {
		if s.hops < 16 {
			byHops[s.hops] = append(byHops[s.hops], float64(s.rtt))
		}
	}
	var means []float64
	for _, xs := range byHops {
		if len(xs) >= 5 {
			var sum float64
			for _, x := range xs {
				sum += x
			}
			means = append(means, sum/float64(len(xs)))
		}
	}
	if len(means) < 3 {
		t.Skip("too few hop buckets")
	}
	increasing := 0
	for i := 1; i < len(means); i++ {
		if means[i] > means[i-1] {
			increasing++
		}
	}
	if increasing < (len(means)-1)/2 {
		t.Errorf("hop/latency correlation too weak: means %v", means)
	}
}

func TestRTTStableAcrossCacheReset(t *testing.T) {
	// Ground-truth RTT must not depend on router/model cache state:
	// clearing the cache (via SetCondition on an AS unrelated to the
	// pair) has to reproduce identical values.
	m, rng := testModel(t, 300, 1500, 69, DefaultConfig())
	pop := m.Population()
	type pair struct {
		a, b cluster.HostID
		rtt  time.Duration
	}
	var pairs []pair
	for i := 0; i < 100; i++ {
		a := cluster.HostID(rng.Intn(pop.NumHosts()))
		b := cluster.HostID(rng.Intn(pop.NumHosts()))
		if rtt, ok := m.HostRTT(a, b); ok {
			pairs = append(pairs, pair{a, b, rtt})
		}
	}
	// Find an AS that carries no host of the sampled pairs and perturb it
	// just to flush caches.
	used := make(map[asgraph.ASN]bool)
	for _, p := range pairs {
		used[pop.Host(p.a).AS] = true
		used[pop.Host(p.b).AS] = true
	}
	var scratch asgraph.ASN
	for _, asn := range m.Graph().ASNs() {
		if m.Graph().Node(asn).Tier == asgraph.TierStub && !used[asn] && m.Graph().Degree(asn) == 1 {
			scratch = asn
			break
		}
	}
	if scratch == 0 {
		t.Skip("no isolated scratch AS")
	}
	m.SetCondition(scratch, Condition{ExtraOneWay: time.Second})
	m.SetCondition(scratch, Condition{})
	for _, p := range pairs {
		rtt, ok := m.HostRTT(p.a, p.b)
		if !ok || rtt != p.rtt {
			t.Fatalf("RTT(%d,%d) changed across cache reset: %v -> %v", p.a, p.b, p.rtt, rtt)
		}
	}
}

// TestUnreachablePairSentinel pins the pair cache's unreachable entry:
// a cluster pair with no policy route reads not-OK from ClusterRTT and
// HostStats whether the call fills the cache or reads it, and again once
// ResetConditions has dropped it, while a reachable pair beside it reads
// OK. The entry is 16 bytes; a field added to it is a declared choice.
func TestUnreachablePairSentinel(t *testing.T) {
	if n := unsafe.Sizeof(pairEntry{}); n != 16 {
		t.Errorf("pair-cache entry is %d bytes, want 16", n)
	}
	// Two components: AS 1 over stubs 2 and 3, AS 10 over stub 11.
	b := asgraph.NewBuilder()
	b.AddEdge(1, 2, asgraph.RelP2C)
	b.AddEdge(1, 3, asgraph.RelP2C)
	b.AddEdge(10, 11, asgraph.RelP2C)
	g := b.Build()
	rng := sim.NewRNG(95)
	alloc, err := bgp.Allocate(g, bgp.DefaultAllocConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := cluster.Generate(alloc, cluster.GenConfig{NumHosts: 200, PopulatedFrac: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, asgraph.NewRouter(g, 0), pop, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c2, c3, c11 := pop.ClustersInAS(2)[0], pop.ClustersInAS(3)[0], pop.ClustersInAS(11)[0]
	h2, h11 := pop.Cluster(c2).Hosts[0], pop.Cluster(c11).Hosts[0]

	// notOK checks one read of the pair and the cache's size after it: a
	// filling read stores the pair, a cached one stores nothing.
	notOK := func(read string, ok bool, wantCached int) {
		t.Helper()
		if ok {
			t.Errorf("%s: unreachable pair reads OK", read)
		}
		if n := cachedPairs(m); n != wantCached {
			t.Errorf("%s: %d cached pairs, want %d", read, n, wantCached)
		}
	}
	_, ok := m.ClusterRTT(c2, c11)
	notOK("ClusterRTT, filling", ok, 1)
	notOK("HostStats, cached", m.HostStats(h2, h11).OK, 1)
	m.ResetConditions()
	notOK("HostStats after ResetConditions, filling", m.HostStats(h2, h11).OK, 1)
	_, ok = m.ClusterRTT(c2, c11)
	notOK("ClusterRTT after ResetConditions, cached", ok, 1)
	if rtt, ok := m.ClusterRTT(c2, c3); !ok || rtt <= 0 {
		t.Errorf("reachable pair beside it reads %v,%v", rtt, ok)
	}
}

func TestConfigValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	g, _ := asgraph.Generate(asgraph.DefaultGenConfig(50), rng)
	bad := []Config{
		func() Config { c := DefaultConfig(); c.CongestedFrac = -0.1; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(g, asgraph.NewRouter(g, 0), nil, cfg, rng); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestEModelAnchors(t *testing.T) {
	// Zero delay, zero loss, G.711: near-best narrowband quality.
	if mos := MOS(0, 0, CodecG711); mos < 4.3 {
		t.Errorf("perfect G.711 MOS = %.2f, want >= 4.3", mos)
	}
	// The paper's operating point: RTT 300 ms, 0.5% loss, G.729A.
	mos := MOSFromRTT(300*time.Millisecond, 0.005, CodecG729A)
	if mos < 3.6 || mos > 4.1 {
		t.Errorf("G.729A at 300ms/0.5%% = %.2f, want in (3.6, 4.1): the 300ms threshold must sit at the satisfaction boundary", mos)
	}
	// 1 s RTT is unsatisfactory (paper: ~3%% of baseline sessions < 2.9).
	if mos := MOSFromRTT(time.Second, 0.005, CodecG729A); mos >= 2.9 {
		t.Errorf("G.729A at 1s = %.2f, want < 2.9", mos)
	}
	// "MOS drops by roughly one unit every 1% of packet loss" without
	// concealment (G.711, Section 2).
	drop := MOS(50*time.Millisecond, 0, CodecG711) - MOS(50*time.Millisecond, 0.01, CodecG711)
	if drop < 0.5 || drop > 1.5 {
		t.Errorf("G.711 MOS drop per 1%% loss = %.2f, want ~1", drop)
	}
}

func TestEModelMonotonicity(t *testing.T) {
	prev := math.Inf(1)
	for d := time.Duration(0); d <= 2*time.Second; d += 50 * time.Millisecond {
		mos := MOS(d, 0.005, CodecG729A)
		if mos > prev {
			t.Fatalf("MOS not monotone in delay at %v", d)
		}
		if mos < 1 || mos > 4.5 {
			t.Fatalf("MOS out of range: %v at %v", mos, d)
		}
		prev = mos
	}
	prevLoss := math.Inf(1)
	for l := 0.0; l <= 0.20; l += 0.01 {
		mos := MOS(100*time.Millisecond, l, CodecG729A)
		if mos > prevLoss {
			t.Fatalf("MOS not monotone in loss at %v", l)
		}
		prevLoss = mos
	}
}

func TestMOSFromRBounds(t *testing.T) {
	if MOSFromR(-10) != 1 {
		t.Error("R<=0 must clamp to 1")
	}
	if MOSFromR(150) != 4.5 {
		t.Error("R>=100 must clamp to 4.5")
	}
}

func TestProberNoiseAndAccounting(t *testing.T) {
	m, rng := testModel(t, 200, 500, 64, DefaultConfig())
	ctr := sim.NewCounters()
	p, err := NewProber(m, DefaultProberConfig(), rng, ctr)
	if err != nil {
		t.Fatal(err)
	}
	pop := m.Population()
	var measured, truth float64
	n := 0
	for i := 0; i < 200; i++ {
		a := cluster.HostID(rng.Intn(pop.NumHosts()))
		b := cluster.HostID(rng.Intn(pop.NumHosts()))
		if a == b {
			continue
		}
		est, ok := p.HostRTT(a, b)
		if !ok {
			continue
		}
		gt, ok2 := m.HostRTT(a, b)
		if !ok2 {
			t.Fatal("prober measured an unreachable pair")
		}
		measured += float64(est)
		truth += float64(gt)
		n++
	}
	if n < 100 {
		t.Fatalf("only %d measurements succeeded", n)
	}
	if ctr.Total() != 400 {
		t.Errorf("probe accounting = %d, want 400 (2 msgs x 200 probes)", ctr.Total())
	}
	if ratio := measured / truth; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("aggregate measurement bias %.3f; noise should be unbiased", ratio)
	}
}

// TestProberDiscardViewAllocs pins the view core's direct ping uses
// (WithCounters(nil)): it measures, charges the prober it came from
// nothing, and costs no allocation — the copy stays on the caller's stack.
func TestProberDiscardViewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	m, rng := testModel(t, 200, 500, 64, DefaultConfig())
	ctr := sim.NewCounters()
	p, err := NewProber(m, DefaultProberConfig(), rng, ctr)
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := p.WithCounters(nil).HostRTT(0, 1); ok {
			answered++
		}
	}); n != 0 {
		t.Errorf("a discarded direct ping allocates %.1f per run, want 0", n)
	}
	if answered == 0 {
		t.Error("the discard view measured nothing")
	}
	if got := ctr.Total(); got != 0 {
		t.Errorf("the discard view charged its parent %d messages, want 0", got)
	}
}

func TestProberNonResponse(t *testing.T) {
	m, rng := testModel(t, 200, 500, 65, DefaultConfig())
	cfg := DefaultProberConfig()
	cfg.ResponseProb = 0.5
	p, err := NewProber(m, cfg, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	for i := 0; i < 400; i++ {
		if _, ok := p.ClusterRTT(0, 1); !ok {
			fails++
		}
	}
	if fails < 120 || fails > 280 {
		t.Errorf("non-response count %d/400, want ~200", fails)
	}
	if p.counters.Total() != 800 {
		t.Errorf("failed probes must still be charged: %d", p.counters.Total())
	}
}

func TestProberValidation(t *testing.T) {
	m, rng := testModel(t, 100, 200, 66, DefaultConfig())
	bad := []ProberConfig{
		{NoiseFrac: -0.1, ResponseProb: 1, MessagesPerProbe: 2},
		{NoiseFrac: 0, ResponseProb: 0, MessagesPerProbe: 2},
		{NoiseFrac: 0, ResponseProb: 1, MessagesPerProbe: 0},
	}
	for i, cfg := range bad {
		if _, err := NewProber(m, cfg, rng, nil); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}
