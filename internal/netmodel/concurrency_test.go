package netmodel

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"asap/internal/asgraph"
	"asap/internal/cluster"
	"asap/internal/sim"
)

// TestModelConcurrentLookups hammers the sharded cluster-pair cache and
// the lock-free path walk from many goroutines while condition writers
// publish new snapshots and drop the cache: misses, hits, uncached probe
// rounds, SetCondition and ResetConditions all race. Run under -race
// (`go test -race -count=10 -run TestModelConcurrentLookups`) this proves
// the striped locking and the snapshot hand-off; the final pass proves
// the cache and the walk converge back to the reference after the churn
// stops.
func TestModelConcurrentLookups(t *testing.T) {
	m, rng := testModel(t, 250, 2000, 77, DefaultConfig())
	pop := m.Population()
	// A noiseless prober that always answers reports ground truth, so its
	// probe rounds can be checked against the reference too.
	exact, err := NewProber(m, ProberConfig{NoiseFrac: 0, ResponseProb: 1, MessagesPerProbe: 1}, rng.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-pick host pairs and a transit AS to impair so goroutines don't
	// share the test RNG.
	type pair struct{ a, b cluster.HostID }
	pairs := make([]pair, 128)
	for i := range pairs {
		pairs[i] = pair{
			a: cluster.HostID(rng.Intn(pop.NumHosts())),
			b: cluster.HostID(rng.Intn(pop.NumHosts())),
		}
	}
	var victim asgraph.ASN
	for _, asn := range m.Graph().ASNs() {
		if m.Graph().Node(asn).Tier != asgraph.TierStub {
			victim = asn
			break
		}
	}

	const readers = 4
	var wg sync.WaitGroup

	// Mutator: flip a condition on and off, and periodically reset, so
	// readers see miss, hit and cache-drop interleavings. Bounded (not
	// loop-until-stopped) so the test stays fast on single-core runners.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 90; i++ {
			switch i % 3 {
			case 0:
				m.SetCondition(victim, Condition{ExtraOneWay: 50 * time.Millisecond, LossRate: 0.01})
			case 1:
				m.SetCondition(victim, Condition{})
			case 2:
				m.ResetConditions()
			}
			runtime.Gosched()
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			targets := make([]cluster.ClusterID, 0, len(pairs))
			for _, p := range pairs {
				targets = append(targets, pop.Host(p.b).Cluster)
			}
			out := make([]PairStat, len(targets))
			probes := make([]ClusterProbe, len(targets))
			prober := exact.WithRNG(sim.NewRNG(int64(r)))
			for rep := 0; rep < 5; rep++ {
				for _, p := range pairs {
					if _, ok := m.HostRTT(p.a, p.b); !ok {
						continue
					}
					m.HostLoss(p.a, p.b)
					m.HostStats(p.a, p.b)
				}
				owner := pop.Host(pairs[r].a).Cluster
				m.ClusterStatsBatch(owner, targets, out)
				prober.ProbeClusterSet(owner, targets, time.Hour, probes)
			}
		}(r)
	}
	wg.Wait()

	// After churn: cached answers, and the uncached walk behind a probe
	// round, must equal the reference path computation.
	m.ResetConditions()
	owner := pop.Host(pairs[0].a).Cluster
	targets := make([]cluster.ClusterID, 0, 64)
	for _, p := range pairs[:64] {
		a, b := pop.Host(p.a), pop.Host(p.b)
		targets = append(targets, b.Cluster)
		if a.Cluster == b.Cluster {
			continue
		}
		want := m.refASPath(a.AS, b.AS)
		got := m.HostStats(p.a, p.b)
		if wantRTT := want.rtt + 2*(a.AccessDelay+b.AccessDelay); got.OK != want.ok || (got.OK && (got.RTT != wantRTT || got.Loss != want.loss)) {
			t.Fatalf("cache diverged for %d-%d: cached %+v, reference %v,%g,%v", p.a, p.b, got, wantRTT, want.loss, want.ok)
		}
	}
	probes := make([]ClusterProbe, len(targets))
	exact.ProbeClusterSet(owner, targets, time.Hour, probes)
	for i, tc := range targets {
		want := PairStat{RTT: 2 * m.cfg.IntraASOneWay, OK: true}
		if tc != owner {
			st := m.refASPath(pop.Cluster(owner).AS, pop.Cluster(tc).AS)
			want = PairStat{RTT: st.rtt, Loss: st.loss, OK: st.ok}
		}
		if got := probes[i]; got.RTTOK != want.OK || got.RTT != want.RTT || got.LossOK != want.OK || got.Loss != want.Loss {
			t.Fatalf("probe round diverged for %d-%d: probed %+v, reference %+v", owner, tc, got, want)
		}
	}
}

// TestProberConcurrentCallers checks that one Prober and its WithCounters
// views can be driven from many goroutines (the close-set construction
// fans out this way), and that message accounting stays exact.
func TestProberConcurrentCallers(t *testing.T) {
	m, rng := testModel(t, 200, 1500, 78, DefaultConfig())
	pop := m.Population()
	p, err := NewProber(m, DefaultProberConfig(), rng.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const probesPer = 400
	var wg sync.WaitGroup
	ctrs := make([]*sim.Counters, workers)
	for w := 0; w < workers; w++ {
		ctrs[w] = sim.NewCounters()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers share the prober's stream via WithCounters;
			// the other half use private sub-seeded streams via WithRNG.
			pw := p.WithCounters(ctrs[w])
			if w%2 == 1 {
				pw = pw.WithRNG(sim.NewRNG(sim.SubSeed(42, uint64(w))))
			}
			for i := 0; i < probesPer; i++ {
				a := cluster.HostID((w*probesPer + i) % pop.NumHosts())
				b := cluster.HostID((w + i*7) % pop.NumHosts())
				pw.HostRTT(a, b)
			}
		}(w)
	}
	wg.Wait()

	for w, ctr := range ctrs {
		want := int64(probesPer) * p.MessagesPerProbe
		if got := ctr.Get("probe.host_rtt"); got != want {
			t.Fatalf("worker %d: probe accounting = %d, want %d", w, got, want)
		}
	}
}

// TestProberWithRNGDeterministic verifies that identical sub-seeded
// streams yield identical noisy measurements regardless of what other
// probers drew in between — the property the parallel eval harness
// depends on.
func TestProberWithRNGDeterministic(t *testing.T) {
	m, rng := testModel(t, 200, 1500, 79, DefaultConfig())
	pop := m.Population()
	p, err := NewProber(m, DefaultProberConfig(), rng.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}

	measure := func(seed int64) []time.Duration {
		pw := p.WithRNG(sim.NewRNG(seed))
		out := make([]time.Duration, 0, 64)
		for i := 0; i < 64; i++ {
			a := cluster.HostID(i % pop.NumHosts())
			b := cluster.HostID((i * 13) % pop.NumHosts())
			r, ok := pw.HostRTT(a, b)
			if !ok {
				r = -1
			}
			out = append(out, r)
		}
		return out
	}

	first := measure(sim.SubSeed(7, 3))
	// Perturb the shared stream in between; the sub-seeded stream must not
	// be affected.
	for i := 0; i < 100; i++ {
		p.HostRTT(cluster.HostID(i%pop.NumHosts()), cluster.HostID((i*3)%pop.NumHosts()))
	}
	second := measure(sim.SubSeed(7, 3))
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("sub-seeded measurement %d diverged: %v vs %v", i, first[i], second[i])
		}
	}
}
