package baseline

import (
	"testing"

	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/cluster"
	"asap/internal/netmodel"
	"asap/internal/sim"
)

type world struct {
	pop    *cluster.Population
	model  *netmodel.Model
	prober *netmodel.Prober
	rng    *sim.RNG
}

func buildWorld(t testing.TB, seed int64) *world {
	t.Helper()
	rng := sim.NewRNG(seed)
	g, err := asgraph.Generate(asgraph.DefaultGenConfig(250), rng)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := bgp.Allocate(g, bgp.DefaultAllocConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := cluster.Generate(alloc, cluster.DefaultGenConfig(1500), rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := netmodel.New(g, asgraph.NewRouter(g, 0), pop, netmodel.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := netmodel.NewProber(m, netmodel.DefaultProberConfig(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &world{pop: pop, model: m, prober: p, rng: rng}
}

func (w *world) pair() (cluster.HostID, cluster.HostID) {
	for {
		a := cluster.HostID(w.rng.Intn(w.pop.NumHosts()))
		b := cluster.HostID(w.rng.Intn(w.pop.NumHosts()))
		if a != b {
			return a, b
		}
	}
}

func TestDediPlacement(t *testing.T) {
	w := buildWorld(t, 90)
	d, err := NewDedi(w.pop, w.model, w.prober, 20)
	if err != nil {
		t.Fatal(err)
	}
	nodes := d.nodes
	if len(nodes) != 20 {
		t.Fatalf("placed %d nodes, want 20", len(nodes))
	}
	// Distinct clusters, and each node is its cluster's delegate.
	seen := make(map[cluster.ClusterID]bool)
	var minDeg int = 1 << 30
	for _, n := range nodes {
		h := w.pop.Host(n)
		if seen[h.Cluster] {
			t.Fatal("two dedicated nodes in one cluster")
		}
		seen[h.Cluster] = true
		if w.pop.Cluster(h.Cluster).Delegate != n {
			t.Fatal("dedicated node is not the cluster delegate")
		}
		if deg := w.model.Graph().Degree(h.AS); deg < minDeg {
			minDeg = deg
		}
	}
	// The chosen clusters should be in high-degree ASes: their minimum
	// degree must be >= the population-wide median AS degree.
	degs := make([]int, 0)
	for _, asn := range w.pop.PopulatedASes() {
		degs = append(degs, w.model.Graph().Degree(asn))
	}
	median := degs[len(degs)/2]
	if minDeg < median {
		t.Errorf("dedicated min degree %d below median %d", minDeg, median)
	}
}

func TestDediSelect(t *testing.T) {
	w := buildWorld(t, 91)
	d, err := NewDedi(w.pop, w.model, w.prober, 15)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := w.pair()
	res, err := d.Select(h1, h2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if len(res.Candidates) > 15 {
		t.Fatalf("%d candidates from 15 nodes", len(res.Candidates))
	}
	// 2 probes x 2 messages per dedicated node attempted.
	if res.Messages != int64(15*4) {
		t.Errorf("messages = %d, want 60", res.Messages)
	}
	for _, c := range res.Candidates {
		if c.Relay == h1 || c.Relay == h2 {
			t.Error("endpoint probed as relay")
		}
		if c.EstRTT <= 0 {
			t.Error("non-positive candidate RTT")
		}
	}
}

func TestRandSelect(t *testing.T) {
	w := buildWorld(t, 92)
	r, err := NewRand(w.pop, w.prober, w.rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := w.pair()
	res, err := r.Select(h1, h2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) < 30 {
		t.Fatalf("only %d candidates from 50 probes", len(res.Candidates))
	}
	if res.Messages > 200 {
		t.Errorf("messages = %d, want <= 200", res.Messages)
	}
	// Distinct relays.
	seen := make(map[cluster.HostID]bool)
	for _, c := range res.Candidates {
		if seen[c.Relay] {
			t.Fatal("duplicate relay probed")
		}
		seen[c.Relay] = true
	}
}

func TestRandSpreadsAcrossSessions(t *testing.T) {
	w := buildWorld(t, 93)
	r, err := NewRand(w.pop, w.prober, w.rng, 30)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := w.pair()
	r1, _ := r.Select(h1, h2, nil)
	r2, _ := r.Select(h1, h2, nil)
	same := 0
	set := make(map[cluster.HostID]bool)
	for _, c := range r1.Candidates {
		set[c.Relay] = true
	}
	for _, c := range r2.Candidates {
		if set[c.Relay] {
			same++
		}
	}
	if same == len(r2.Candidates) {
		t.Error("RAND probed identical node sets in consecutive sessions")
	}
}

func TestMixSelect(t *testing.T) {
	w := buildWorld(t, 94)
	m, err := NewMix(w.pop, w.model, w.prober, w.rng, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "MIX" {
		t.Errorf("name = %q", m.Name())
	}
	h1, h2 := w.pair()
	res, err := m.Select(h1, h2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 || len(res.Candidates) > 40 {
		t.Fatalf("%d candidates", len(res.Candidates))
	}
	if res.Messages > 160 {
		t.Errorf("messages = %d, want <= 160", res.Messages)
	}
}

func TestConstructorValidation(t *testing.T) {
	w := buildWorld(t, 95)
	if _, err := NewDedi(w.pop, w.model, w.prober, 0); err == nil {
		t.Error("NewDedi(0) should fail")
	}
	if _, err := NewRand(w.pop, w.prober, w.rng, 0); err == nil {
		t.Error("NewRand(0) should fail")
	}
	if _, err := NewMix(w.pop, w.model, w.prober, w.rng, 0, 10); err == nil {
		t.Error("NewMix with bad dedi count should fail")
	}
}
