package netmodel

import (
	"math"
	"slices"
	"testing"
	"time"

	"asap/internal/asgraph"
	"asap/internal/cluster"
	"asap/internal/sim"
)

// refASPath is the reference for asPath's walk: the policy path as an
// []ASN from RouteTable.Path, then refPathOneWay over it, computing each
// link's delay and looking up each AS's condition on the way.
func (m *Model) refASPath(a, b asgraph.ASN) pathStats {
	if a == b {
		oneWay := m.cfg.IntraASOneWay
		var loss float64
		if c, ok := m.Condition(a); ok {
			oneWay += c.ExtraOneWay
			loss = c.LossRate
		}
		return pathStats{rtt: 2 * oneWay, loss: loss, hops: 0, ok: true}
	}
	dst, src := a, b
	if dst > src {
		dst, src = src, dst
	}
	t := m.router.Table(dst)
	if t == nil {
		return pathStats{}
	}
	path, ok := t.Path(src)
	if !ok {
		return pathStats{}
	}
	oneWay, loss := m.refPathOneWay(path)
	return pathStats{rtt: 2 * oneWay, loss: loss, hops: len(path) - 1, ok: true}
}

// refPathOneWay computes one-way delay and loss along an AS path,
// applying the conditions of every AS on it, endpoints included.
func (m *Model) refPathOneWay(path []asgraph.ASN) (time.Duration, float64) {
	d := m.cfg.IntraASOneWay * time.Duration(len(path))
	success := 1.0
	for i, asn := range path {
		if i+1 < len(path) {
			d += m.linkOneWay(asn, path[i+1])
			success *= 1 - m.cfg.BaseLossRate
		}
		if c, ok := m.Condition(asn); ok {
			d += c.ExtraOneWay
			success *= 1 - c.LossRate
		}
	}
	return d, 1 - success
}

// assertWalkMatches requires asPath to equal the reference bit for bit on
// every pair: RTT, the loss float's bits, hop count and reachability.
func assertWalkMatches(t *testing.T, m *Model, label string, pairs [][2]asgraph.ASN) {
	t.Helper()
	for _, p := range pairs {
		got, want := m.asPath(p[0], p[1]), m.refASPath(p[0], p[1])
		if got.rtt != want.rtt || math.Float64bits(got.loss) != math.Float64bits(want.loss) ||
			got.hops != want.hops || got.ok != want.ok {
			t.Fatalf("%s: AS%d-AS%d: walk %+v, reference %+v", label, p[0], p[1], got, want)
		}
	}
}

// TestASPathMatchesPathWalk pins the index walk to the []ASN path it
// replaced on the tiny world's topology (every AS pair, self pairs
// included) and on 5,000 seeded pairs of the small world's: under the
// congestion New injects on transit ASes, with conditions added on
// endpoints and transit alike, after a clear, and with none at all.
func TestASPathMatchesPathWalk(t *testing.T) {
	for _, w := range []struct {
		name         string
		ases, hosts  int
		sampledPairs int // 0: every pair
	}{
		{"tiny", 200, 2000, 0},
		{"small", 2000, 12000, 5000},
	} {
		m, _ := testModel(t, w.ases, w.hosts, 1, DefaultConfig())
		asns := m.Graph().ASNs()
		var pairs [][2]asgraph.ASN
		if w.sampledPairs == 0 {
			for _, a := range asns {
				for _, b := range asns {
					pairs = append(pairs, [2]asgraph.ASN{a, b})
				}
			}
		} else {
			rng := sim.NewRNG(99)
			for i := 0; i < w.sampledPairs; i++ {
				pairs = append(pairs, [2]asgraph.ASN{asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]})
			}
		}
		if len(m.CongestedASes()) == 0 {
			t.Fatalf("%s: New injected no congestion; the first pass checks nothing", w.name)
		}
		assertWalkMatches(t, m, w.name+" as built", pairs)

		// Every seventh AS, stubs (path endpoints) and transits alike.
		for i := 0; i < len(asns); i += 7 {
			m.SetCondition(asns[i], Condition{
				ExtraOneWay: time.Duration(i+1) * 3 * time.Millisecond,
				LossRate:    float64(i%11) / 97,
			})
		}
		assertWalkMatches(t, m, w.name+" after SetCondition", pairs)

		// Clearing one condition must take it off every path.
		m.SetCondition(asns[7], Condition{})
		if _, ok := m.Condition(asns[7]); ok {
			t.Fatalf("%s: a cleared condition is still reported", w.name)
		}
		assertWalkMatches(t, m, w.name+" after a clear", pairs)

		m.ResetConditions()
		if n := len(m.CongestedASes()); n != 0 {
			t.Fatalf("%s: %d conditions survive ResetConditions", w.name, n)
		}
		assertWalkMatches(t, m, w.name+" after ResetConditions", pairs)
	}
}

// cachedPairs counts the cluster pairs the model's pair cache holds.
func cachedPairs(m *Model) int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// TestProbeClusterSetDoesNotFillPairCache: a close-set probe round reads
// ground truth straight from the walk and leaves the pair cache as it
// found it, while the cached lookups still fill it.
func TestProbeClusterSetDoesNotFillPairCache(t *testing.T) {
	m, rng := testModel(t, 200, 1500, 94, DefaultConfig())
	pop := m.Population()
	p, err := NewProber(m, DefaultProberConfig(), rng.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}
	owner := cluster.ClusterID(rng.Intn(pop.NumClusters()))
	targets := batchTargets(m, rng, owner, 40)
	probes := make([]ClusterProbe, len(targets))
	p.ProbeClusterSet(owner, targets, 150*time.Millisecond, probes)
	if n := cachedPairs(m); n != 0 {
		t.Fatalf("a probe round left %d pairs in the cache, want 0", n)
	}
	answered := 0
	for _, pr := range probes {
		if pr.RTTOK {
			answered++
		}
	}
	if answered == 0 {
		t.Fatal("the probe round measured nothing")
	}
	m.ClusterStatsBatch(owner, targets, make([]PairStat, len(targets)))
	if cachedPairs(m) == 0 {
		t.Fatal("ClusterStatsBatch filled nothing; the zero above proves nothing")
	}
}

// TestProbeClusterSetAllocs: once the route tables exist, a probe round
// allocates nothing, however many of its pairs were never asked before.
// Each run probes from a new owner, so a cache-filling round would pay a
// path per miss.
func TestProbeClusterSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	m, rng := testModel(t, 200, 1500, 95, DefaultConfig())
	pop := m.Population()
	for _, asn := range m.Graph().ASNs() {
		m.Router().Table(asn)
	}
	p, err := NewProber(m, DefaultProberConfig(), rng.Split(), sim.NewCounters())
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]cluster.ClusterID, 0, 64)
	for i := 0; i < 64 && i < pop.NumClusters(); i++ {
		targets = append(targets, cluster.ClusterID(i))
	}
	probes := make([]ClusterProbe, len(targets))
	owner := 0
	if n := testing.AllocsPerRun(100, func() {
		p.ProbeClusterSet(cluster.ClusterID(owner%pop.NumClusters()), targets, 150*time.Millisecond, probes)
		owner += 7
	}); n != 0 {
		t.Errorf("a probe round of %d targets allocates %.1f, want 0", len(targets), n)
	}
}

// TestClustersAtIndexMatchesPopulation: the model's per-index inverse of
// the cluster→AS map lists every AS's clusters in Population.ClustersInAS
// order — the order a close-set build probes them in, and so draws its
// noise in.
func TestClustersAtIndexMatchesPopulation(t *testing.T) {
	m, _ := testModel(t, 200, 1500, 96, DefaultConfig())
	pop, g := m.Population(), m.Graph()
	total := 0
	for ai, asn := range g.ASNs() {
		got, want := m.ClustersAtIndex(int32(ai)), pop.ClustersInAS(asn)
		if !slices.Equal(got, want) {
			t.Fatalf("AS%d (index %d): ClustersAtIndex %v, ClustersInAS %v", asn, ai, got, want)
		}
		total += len(got)
	}
	if total != pop.NumClusters() {
		t.Fatalf("the index lists %d clusters, the population has %d", total, pop.NumClusters())
	}
}
