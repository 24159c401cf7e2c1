package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/sim"
)

func testWorld(t testing.TB, ases, hosts int, seed int64) (*asgraph.Graph, *bgp.Allocation, *Population) {
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
	pop, err := Generate(alloc, DefaultGenConfig(hosts), rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, alloc, pop
}

func TestGeneratePopulationInvariants(t *testing.T) {
	g, _, pop := testWorld(t, 300, 3000, 20)
	if pop.NumHosts() != 3000 {
		t.Fatalf("NumHosts = %d, want 3000", pop.NumHosts())
	}
	if pop.NumClusters() == 0 {
		t.Fatal("no clusters")
	}

	seenAddr := make(map[bgp.Addr]bool)
	for _, h := range pop.Hosts() {
		if seenAddr[h.Addr] {
			t.Fatalf("duplicate address %s", h.Addr)
		}
		seenAddr[h.Addr] = true
		c := pop.Cluster(h.Cluster)
		if !c.Prefix.Contains(h.Addr) {
			t.Fatalf("host %s outside its cluster prefix %s", h.Addr, c.Prefix)
		}
		if h.AS != c.AS {
			t.Fatalf("host AS %d != cluster AS %d", h.AS, c.AS)
		}
		if !g.Has(h.AS) {
			t.Fatalf("host in unknown AS %d", h.AS)
		}
		if h.BandwidthKbps <= 0 || h.AccessDelay <= 0 {
			t.Fatalf("non-positive host attributes: %+v", h)
		}
	}

	total := 0
	for _, c := range pop.Clusters() {
		if len(c.Hosts) == 0 {
			t.Fatalf("empty cluster %d", c.ID)
		}
		total += len(c.Hosts)
		found := false
		for _, id := range c.Hosts {
			if id == c.Delegate {
				found = true
			}
			if pop.Host(id).Cluster != c.ID {
				t.Fatalf("host %d listed in cluster %d but points to %d", id, c.ID, pop.Host(id).Cluster)
			}
		}
		if !found {
			t.Fatalf("cluster %d delegate %d not a member", c.ID, c.Delegate)
		}
	}
	if total != pop.NumHosts() {
		t.Fatalf("cluster membership totals %d, want %d", total, pop.NumHosts())
	}
}

// popDigest hashes a population host by host and cluster by cluster.
func popDigest(p *Population) string {
	h := sha256.New()
	for _, x := range p.Hosts() {
		fmt.Fprintf(h, "%+v\n", x)
	}
	for _, c := range p.Clusters() {
		fmt.Fprintf(h, "%+v\n", c)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGenerateDeterministic(t *testing.T) {
	for _, size := range []struct{ ases, hosts int }{
		{200, 1000},
		{2000, 12000}, // eval.Small
	} {
		_, _, p1 := testWorld(t, size.ases, size.hosts, 33)
		_, _, p2 := testWorld(t, size.ases, size.hosts, 33)
		if p1.NumClusters() != p2.NumClusters() {
			t.Fatal("same seed, different cluster count")
		}
		if popDigest(p1) != popDigest(p2) {
			t.Fatalf("%d hosts: same seed, different population", size.hosts)
		}
	}
}

// TestGeneratePaperSizeIsFast builds the paper profile's population
// (eval.Paper: 23,366 hosts over ~7,170 populated prefixes of a
// 20,955-AS allocation) and bounds the wall time of Generate alone: it is
// ~12 ms when each host costs a binary search, and was 6.3 s when each
// host re-summed the Zipf series over every cluster. The digest is
// logged so two commits can be compared with -v.
func TestGeneratePaperSizeIsFast(t *testing.T) {
	rng := sim.NewRNG(1)
	g, err := asgraph.Generate(asgraph.DefaultGenConfig(20955), rng)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := bgp.Allocate(g, bgp.DefaultAllocConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGenConfig(23366)
	cfg.PopulatedFrac = 0.16
	start := time.Now()
	pop, err := Generate(alloc, cfg, rng)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d hosts in %d clusters in %v, digest %s", pop.NumHosts(), pop.NumClusters(), took, popDigest(pop))
	if took > time.Second {
		t.Errorf("Generate took %v at the paper profile's size, want < 1s", took)
	}
}

func TestClusterSizesHeavyTailed(t *testing.T) {
	_, _, pop := testWorld(t, 400, 8000, 44)
	// Section 6.3 shape: the overwhelming majority of clusters are small.
	if f := pop.SizeCDFAt(100); f < 0.85 {
		t.Errorf("fraction of clusters <= 100 hosts = %.2f, want >= 0.85", f)
	}
	// But a heavy tail exists: the largest cluster dwarfs the median.
	max := 0
	for _, c := range pop.Clusters() {
		if len(c.Hosts) > max {
			max = len(c.Hosts)
		}
	}
	if max < 20 {
		t.Errorf("largest cluster only %d hosts; tail too thin", max)
	}
}

func TestByAddrAndASIndexes(t *testing.T) {
	_, _, pop := testWorld(t, 200, 1000, 55)
	byAddr := func(a bgp.Addr) (*Host, bool) {
		for i := range pop.Hosts() {
			if h := &pop.Hosts()[i]; h.Addr == a {
				return h, true
			}
		}
		return nil, false
	}
	h0 := pop.Host(0)
	got, ok := byAddr(h0.Addr)
	if !ok || got.ID != h0.ID {
		t.Fatalf("host by address %s = %v,%v", h0.Addr, got, ok)
	}
	if _, ok := byAddr(bgp.Addr(1)); ok {
		t.Error("host lookup on an unknown address should miss")
	}
	seen := make(map[bgp.Addr]HostID, pop.NumHosts())
	for _, h := range pop.Hosts() {
		if prev, dup := seen[h.Addr]; dup {
			t.Fatalf("hosts %d and %d share address %s", prev, h.ID, h.Addr)
		}
		seen[h.Addr] = h.ID
	}
	for _, asn := range pop.PopulatedASes() {
		for _, cid := range pop.ClustersInAS(asn) {
			if pop.Cluster(cid).AS != asn {
				t.Fatalf("cluster %d indexed under wrong AS", cid)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	g, _ := asgraph.Generate(asgraph.DefaultGenConfig(50), rng)
	alloc, _ := bgp.Allocate(g, bgp.DefaultAllocConfig(), rng)
	bad := []GenConfig{
		{NumHosts: 0, PopulatedFrac: 0.5},
		{NumHosts: 10, PopulatedFrac: 0},
		{NumHosts: 10, PopulatedFrac: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Generate(alloc, cfg, rng); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestNodalScoreOrdering(t *testing.T) {
	weak := Host{BandwidthKbps: 128, CPUScore: 0.5}
	strong := Host{BandwidthKbps: 10000, CPUScore: 4}
	if weak.NodalScore() >= strong.NodalScore() {
		t.Error("stronger host must score higher")
	}
}
