package baseline_test

import (
	"testing"

	"asap/internal/baseline"
	"asap/internal/cluster"
	"asap/internal/eval"
)

// buildWorld is eval.BuildWorld with 250 ASes and 1,500 hosts.
func buildWorld(t testing.TB, seed int64) *eval.World {
	t.Helper()
	w, err := eval.BuildWorld(eval.Profile{ASes: 250, Hosts: 1500, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func pair(w *eval.World) (cluster.HostID, cluster.HostID) {
	for {
		a := cluster.HostID(w.RNG.Intn(w.Pop.NumHosts()))
		b := cluster.HostID(w.RNG.Intn(w.Pop.NumHosts()))
		if a != b {
			return a, b
		}
	}
}

func TestDediPlacement(t *testing.T) {
	w := buildWorld(t, 90)
	d, err := baseline.NewDedi(w.Pop, w.Model, w.Prober, 20)
	if err != nil {
		t.Fatal(err)
	}
	nodes := baseline.DediNodes(d)
	if len(nodes) != 20 {
		t.Fatalf("placed %d nodes, want 20", len(nodes))
	}
	// Distinct clusters, and each node is its cluster's delegate.
	seen := make(map[cluster.ClusterID]bool)
	var minDeg int = 1 << 30
	for _, n := range nodes {
		h := w.Pop.Host(n)
		if seen[h.Cluster] {
			t.Fatal("two dedicated nodes in one cluster")
		}
		seen[h.Cluster] = true
		if w.Pop.Cluster(h.Cluster).Delegate != n {
			t.Fatal("dedicated node is not the cluster delegate")
		}
		if deg := w.Model.Graph().Degree(h.AS); deg < minDeg {
			minDeg = deg
		}
	}
	// The chosen clusters should be in high-degree ASes: their minimum
	// degree must be >= the population-wide median AS degree.
	degs := make([]int, 0)
	for _, asn := range w.Pop.PopulatedASes() {
		degs = append(degs, w.Model.Graph().Degree(asn))
	}
	median := degs[len(degs)/2]
	if minDeg < median {
		t.Errorf("dedicated min degree %d below median %d", minDeg, median)
	}
}

func TestDediSelect(t *testing.T) {
	w := buildWorld(t, 91)
	d, err := baseline.NewDedi(w.Pop, w.Model, w.Prober, 15)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := pair(w)
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
	r, err := baseline.NewRand(w.Pop, w.Prober, w.RNG, 50)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := pair(w)
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
	r, err := baseline.NewRand(w.Pop, w.Prober, w.RNG, 30)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := pair(w)
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
	m, err := baseline.NewMix(w.Pop, w.Model, w.Prober, w.RNG, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "MIX" {
		t.Errorf("name = %q", m.Name())
	}
	h1, h2 := pair(w)
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
	if _, err := baseline.NewDedi(w.Pop, w.Model, w.Prober, 0); err == nil {
		t.Error("baseline.NewDedi(0) should fail")
	}
	if _, err := baseline.NewRand(w.Pop, w.Prober, w.RNG, 0); err == nil {
		t.Error("baseline.NewRand(0) should fail")
	}
	if _, err := baseline.NewMix(w.Pop, w.Model, w.Prober, w.RNG, 0, 10); err == nil {
		t.Error("NewMix with bad dedi count should fail")
	}
}
