package netmodel

import (
	"testing"
	"time"

	"asap/internal/cluster"
	"asap/internal/sim"
)

// The batch lookups must be drop-in equivalents of the scalar calls:
// same values pair for pair, cold cache or warm, before and after a
// condition mutation — and allocation-free at steady state. The batch is
// a loop over the scalar path today; these tests guard a future
// re-vectorisation.

// Scalar loss accessors nothing outside the tests calls any more; they
// live here as the references the equivalence tests compare against.

// ClusterLoss returns the ground-truth loss rate between two clusters.
func (m *Model) ClusterLoss(c1, c2 cluster.ClusterID) (float64, bool) {
	if c1 == c2 {
		return 0, true
	}
	st := m.clusterPath(c1, c2)
	return st.loss, st.ok
}

// HostLoss returns the ground-truth end-to-end loss rate between hosts.
func (m *Model) HostLoss(h1, h2 cluster.HostID) (float64, bool) {
	if h1 == h2 {
		return 0, true
	}
	a, b := m.pop.Host(h1), m.pop.Host(h2)
	if a.Cluster == b.Cluster {
		return 0, true
	}
	st := m.clusterPath(a.Cluster, b.Cluster)
	if !st.ok {
		return 0, false
	}
	return st.loss, true
}

func batchTargets(m *Model, rng *sim.RNG, owner cluster.ClusterID, n int) []cluster.ClusterID {
	pop := m.Population()
	targets := make([]cluster.ClusterID, 0, n+2)
	for i := 0; i < n; i++ {
		targets = append(targets, cluster.ClusterID(rng.Intn(pop.NumClusters())))
	}
	// Edge cases the batch key phase special-cases: the owner itself, and
	// a duplicate of an earlier target (same cache key twice in one call).
	targets = append(targets, owner, targets[0])
	// ProbeClusterSet walks once per run of targets in one AS: a whole
	// AS's clusters as one run, an A,B,A interleave of that AS with
	// another, and the owner's own AS, whose clusters run through the
	// owner itself (its siblings share its AS but not its zero path).
	for _, asn := range pop.PopulatedASes() {
		if run := pop.ClustersInAS(asn); len(run) >= 2 && asn != pop.Cluster(owner).AS {
			targets = append(targets, run...)
			targets = append(targets, run[0], targets[0], run[1])
			break
		}
	}
	return append(targets, pop.ClustersInAS(pop.Cluster(owner).AS)...)
}

// multiClusterOwner draws a cluster whose AS holds other clusters too, so
// batchTargets gives it siblings.
func multiClusterOwner(t *testing.T, m *Model, rng *sim.RNG) cluster.ClusterID {
	t.Helper()
	pop := m.Population()
	var owners []cluster.ClusterID
	for _, asn := range pop.PopulatedASes() {
		if run := pop.ClustersInAS(asn); len(run) >= 2 {
			owners = append(owners, run...)
		}
	}
	if len(owners) == 0 {
		t.Fatal("no AS holds two clusters")
	}
	return owners[rng.Intn(len(owners))]
}

func assertClusterBatchMatches(t *testing.T, m *Model, owner cluster.ClusterID, targets []cluster.ClusterID) {
	t.Helper()
	out := make([]PairStat, len(targets))
	m.ClusterStatsBatch(owner, targets, out)
	for i, tc := range targets {
		rtt, rok := m.ClusterRTT(owner, tc)
		loss, lok := m.ClusterLoss(owner, tc)
		if out[i].OK != rok || out[i].OK != lok {
			t.Fatalf("target %d (%d->%d): batch ok=%v, scalar rtt ok=%v loss ok=%v", i, owner, tc, out[i].OK, rok, lok)
		}
		if !out[i].OK {
			continue
		}
		if out[i].RTT != rtt || out[i].Loss != loss {
			t.Errorf("target %d (%d->%d): batch (%v, %g), scalar (%v, %g)", i, owner, tc, out[i].RTT, out[i].Loss, rtt, loss)
		}
	}
}

func TestClusterStatsBatchMatchesScalar(t *testing.T) {
	m, rng := testModel(t, 200, 1500, 90, DefaultConfig())
	pop := m.Population()
	for round := 0; round < 10; round++ {
		owner := cluster.ClusterID(rng.Intn(pop.NumClusters()))
		targets := batchTargets(m, rng, owner, 30)
		// Cold pass populates the cache, warm pass replays it.
		assertClusterBatchMatches(t, m, owner, targets)
		assertClusterBatchMatches(t, m, owner, targets)
	}

	// A condition mutation drops the cache and changes ground truth; the
	// batch must track the scalar path through it.
	owner := cluster.ClusterID(rng.Intn(pop.NumClusters()))
	targets := batchTargets(m, rng, owner, 30)
	assertClusterBatchMatches(t, m, owner, targets)
	asn := pop.Cluster(targets[0]).AS
	m.SetCondition(asn, Condition{ExtraOneWay: 50 * time.Millisecond})
	assertClusterBatchMatches(t, m, owner, targets)
	m.ResetConditions()
	assertClusterBatchMatches(t, m, owner, targets)
}

// TestHostStatsMatchesRTTAndLoss pins HostStats against the cluster-level
// lookups it is built from: cluster-pair RTT plus both access delays in
// each direction, cluster-pair loss, and the same-host / same-cluster
// shortcuts.
func TestHostStatsMatchesRTTAndLoss(t *testing.T) {
	m, rng := testModel(t, 200, 1500, 91, DefaultConfig())
	pop := m.Population()
	for round := 0; round < 10; round++ {
		a := cluster.HostID(rng.Intn(pop.NumHosts()))
		bs := make([]cluster.HostID, 0, 34)
		for i := 0; i < 30; i++ {
			bs = append(bs, cluster.HostID(rng.Intn(pop.NumHosts())))
		}
		// Edge cases: the owner host itself, a same-cluster neighbour, and
		// a duplicate target.
		bs = append(bs, a, bs[0])
		if sib := pop.Cluster(pop.Host(a).Cluster).Hosts[0]; sib != a {
			bs = append(bs, sib)
		}
		ha := pop.Host(a)
		for i, b := range bs {
			hb := pop.Host(b)
			var rtt time.Duration
			rok := true
			switch {
			case a == b:
			case ha.Cluster == hb.Cluster:
				rtt = 2 * (ha.AccessDelay + hb.AccessDelay)
			default:
				rtt, rok = m.ClusterRTT(ha.Cluster, hb.Cluster)
				rtt += 2 * (ha.AccessDelay + hb.AccessDelay)
			}
			loss, lok := m.HostLoss(a, b)
			got := m.HostStats(a, b)
			if got.OK != rok || got.OK != lok {
				t.Fatalf("pair %d (%d->%d): stats ok=%v, rtt ok=%v loss ok=%v", i, a, b, got.OK, rok, lok)
			}
			if !got.OK {
				if got != (PairStat{}) {
					t.Errorf("pair %d (%d->%d): disconnected pair carries %+v", i, a, b, got)
				}
				continue
			}
			if got.RTT != rtt || got.Loss != loss {
				t.Errorf("pair %d (%d->%d): stats (%v, %g), want (%v, %g)", i, a, b, got.RTT, got.Loss, rtt, loss)
			}
			if r, ok := m.HostRTT(a, b); r != got.RTT || ok != got.OK {
				t.Errorf("pair %d (%d->%d): HostRTT (%v, %v) is not HostStats' projection (%v, %v)", i, a, b, r, ok, got.RTT, got.OK)
			}
		}
	}
}

// Scalar reference probes: the one-pair-at-a-time measurements that
// ProbeClusterSet replaced in production. They live here as the oracle
// for TestProbeClusterSetMatchesScalarSequence (and TestProberNonResponse).

// ClusterRTT measures delegate-to-delegate RTT between clusters.
func (p *Prober) ClusterRTT(a, b cluster.ClusterID) (time.Duration, bool) {
	p.counters.Add("probe.cluster_rtt", p.MessagesPerProbe)
	if !p.rng.Bool(p.ResponseProb) {
		return 0, false
	}
	rtt, ok := p.m.ClusterRTT(a, b)
	if !ok {
		return 0, false
	}
	return p.noisy(rtt), true
}

// ClusterLoss samples the loss rate between two clusters with a short
// ping train.
func (p *Prober) ClusterLoss(a, b cluster.ClusterID) (float64, bool) {
	p.counters.Add("probe.cluster_loss", p.MessagesPerProbe)
	if !p.rng.Bool(p.ResponseProb) {
		return 0, false
	}
	return p.m.ClusterLoss(a, b)
}

// TestProbeClusterSetMatchesScalarSequence pins the RNG contract: with
// identical streams, the batched probe round produces bit-identical
// measurements and identical message accounting to the scalar
// ClusterRTT-then-ClusterLoss sequence it replaces.
func TestProbeClusterSetMatchesScalarSequence(t *testing.T) {
	m, rng := testModel(t, 200, 1500, 92, DefaultConfig())
	pop := m.Population()
	cfg := DefaultProberConfig()
	cfg.ResponseProb = 0.7 // force plenty of non-responses into the stream
	latT := 150 * time.Millisecond

	for round := 0; round < 20; round++ {
		owner := cluster.ClusterID(rng.Intn(pop.NumClusters()))
		if round%2 == 1 {
			// An impaired AS with siblings: only the owner's own entry
			// skips the AS's condition, so a walk shared across the owner
			// and its siblings shows.
			owner = multiClusterOwner(t, m, rng)
			m.SetCondition(pop.Cluster(owner).AS, Condition{ExtraOneWay: 20 * time.Millisecond, LossRate: 0.01})
		}
		targets := batchTargets(m, rng, owner, 25)
		seed := int64(1000 + round)

		sCtr := sim.NewCounters()
		sp, err := NewProber(m, cfg, sim.NewRNG(seed), sCtr)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]ClusterProbe, len(targets))
		for i, tc := range targets {
			var pr ClusterProbe
			pr.RTT, pr.RTTOK = sp.ClusterRTT(owner, tc)
			if pr.RTTOK && pr.RTT < latT {
				pr.Loss, pr.LossOK = sp.ClusterLoss(owner, tc)
			}
			want[i] = pr
		}

		bCtr := sim.NewCounters()
		bp, err := NewProber(m, cfg, sim.NewRNG(seed), bCtr)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]ClusterProbe, len(targets))
		bp.ProbeClusterSet(owner, targets, latT, got)

		for i := range targets {
			if got[i] != want[i] {
				t.Fatalf("round %d target %d: batched %+v, scalar %+v", round, i, got[i], want[i])
			}
		}
		if s, b := sCtr.Total(), bCtr.Total(); s != b {
			t.Errorf("round %d: batched charged %d messages, scalar %d", round, b, s)
		}
		m.ResetConditions()
	}
}

// TestClusterStatsBatchAllocs gates the vectorized lookup's zero-alloc
// claim: with a warm cache and reused output, a batch visit allocates
// nothing.
func TestClusterStatsBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	m, rng := testModel(t, 200, 1500, 93, DefaultConfig())
	pop := m.Population()
	owner := cluster.ClusterID(rng.Intn(pop.NumClusters()))
	targets := batchTargets(m, rng, owner, 40)
	out := make([]PairStat, len(targets))
	m.ClusterStatsBatch(owner, targets, out) // warm the cache

	if n := testing.AllocsPerRun(200, func() {
		m.ClusterStatsBatch(owner, targets, out)
	}); n != 0 {
		t.Errorf("warm ClusterStatsBatch allocates %.1f per run, want 0", n)
	}

	a := pop.Cluster(owner).Hosts[0]
	bs := make([]cluster.HostID, len(targets))
	for i, tc := range targets {
		bs[i] = pop.Cluster(tc).Hosts[0]
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, b := range bs {
			out[0] = m.HostStats(a, b)
		}
	}); n != 0 {
		t.Errorf("warm HostStats allocates %.1f per %d pairs, want 0", n, len(bs))
	}
}
