package core

import (
	"testing"
	"time"

	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/cluster"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// world bundles the common test fixtures.
type world struct {
	g      *asgraph.Graph
	pop    *cluster.Population
	model  *netmodel.Model
	prober *netmodel.Prober
	rng    *sim.RNG
}

func buildWorld(t testing.TB, ases, hosts int, seed int64) *world {
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
	m, err := netmodel.New(g, asgraph.NewRouter(g, 0), pop, netmodel.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := netmodel.NewProber(m, netmodel.DefaultProberConfig(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &world{g: g, pop: pop, model: m, prober: p, rng: rng}
}

func newSystem(t testing.TB, w *world, params Params) *System {
	t.Helper()
	s, err := NewSystem(w.model, w.prober, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{K: 0, LatT: time.Second, LossT: 0.1, SizeT: 1},
		{K: 4, LatT: 0, LossT: 0.1, SizeT: 1},
		{K: 4, LatT: time.Second, LossT: 0, SizeT: 1},
		{K: 4, LatT: time.Second, LossT: 1.5, SizeT: 1},
		{K: 4, LatT: time.Second, LossT: 0.1, SizeT: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v should be invalid", i, p)
		}
	}
}

func TestNewSystemElectsSurrogates(t *testing.T) {
	w := buildWorld(t, 250, 1500, 80)
	s := newSystem(t, w, DefaultParams())
	for _, c := range w.pop.Clusters() {
		sur, ok := s.Surrogate(c.ID)
		if !ok {
			t.Fatalf("cluster %d has no surrogate", c.ID)
		}
		if w.pop.Host(sur).Cluster != c.ID {
			t.Fatalf("surrogate %d not a member of cluster %d", sur, c.ID)
		}
		// Must be the best-scoring member.
		best := sur
		for _, id := range c.Hosts {
			if w.pop.Host(id).NodalScore() > w.pop.Host(best).NodalScore() {
				best = id
			}
		}
		if best != sur {
			t.Fatalf("cluster %d surrogate %d is not the best host %d", c.ID, sur, best)
		}
	}
}

func TestCloseSetRespectsThresholdsAndValleyFreedom(t *testing.T) {
	w := buildWorld(t, 250, 1500, 81)
	params := DefaultParams()
	s := newSystem(t, w, params)
	cid := w.pop.Host(0).Cluster
	cs, err := s.CloseSet(cid)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Owner != cid {
		t.Errorf("owner = %d, want %d", cs.Owner, cid)
	}
	ownAS := w.pop.Cluster(cid).AS
	reach := w.g.ValleyFreeBFS(ownAS, params.K)
	for _, e := range cs.Clusters {
		rc, lat := e.Cluster, e.RTT
		if lat >= params.LatT {
			t.Errorf("close cluster %d with RTT %v >= latT", rc, lat)
		}
		rcAS := w.pop.Cluster(rc).AS
		if _, ok := reach.Hops[rcAS]; !ok {
			t.Errorf("close cluster %d in AS%d outside the k=%d valley-free horizon",
				rc, rcAS, params.K)
		}
		var gt [1]netmodel.PairStat
		w.model.ClusterStatsBatch(cid, []cluster.ClusterID{rc}, gt[:])
		if !gt[0].OK || gt[0].Loss >= 2*params.LossT {
			// Measurements are noiseless for loss, so ground truth must be
			// comfortably under the threshold.
			t.Errorf("close cluster %d has ground-truth loss %v", rc, gt[0].Loss)
		}
	}
	if cs.BuildMessages == 0 {
		t.Error("construction should cost probe messages")
	}
	// Cached: second call returns the identical set without re-paying.
	before := s.BuildMessages()
	cs2, err := s.CloseSet(cid)
	if err != nil {
		t.Fatal(err)
	}
	if cs2 != cs {
		t.Error("close set not cached")
	}
	if s.BuildMessages() != before {
		t.Error("cache hit charged messages")
	}
}

func TestSelectCloseRelayBasics(t *testing.T) {
	w := buildWorld(t, 250, 2000, 82)
	s := newSystem(t, w, DefaultParams())

	var done int
	for i := 0; i < 40 && done < 15; i++ {
		h1 := cluster.HostID(w.rng.Intn(w.pop.NumHosts()))
		h2 := cluster.HostID(w.rng.Intn(w.pop.NumHosts()))
		if h1 == h2 || w.pop.Host(h1).Cluster == w.pop.Host(h2).Cluster {
			continue
		}
		sel, err := s.SelectCloseRelay(h1, h2)
		if err != nil {
			t.Fatal(err)
		}
		done++
		if sel.Messages < 4 {
			t.Errorf("session cost %d messages, want >= 4 (ping + set fetch)", sel.Messages)
		}
		// Candidates sorted and under latT.
		for i := 1; i < len(sel.OneHop); i++ {
			if sel.OneHop[i].EstRTT < sel.OneHop[i-1].EstRTT {
				t.Fatal("one-hop candidates not sorted")
			}
		}
		for _, oc := range sel.OneHop {
			if oc.EstRTT >= s.Params().LatT {
				t.Fatalf("one-hop candidate over latT: %v", oc.EstRTT)
			}
			if oc.Cluster == w.pop.Host(h1).Cluster || oc.Cluster == w.pop.Host(h2).Cluster {
				t.Fatal("endpoint cluster used as relay")
			}
		}
		for _, tc := range sel.TwoHop {
			if tc.EstRTT >= s.Params().LatT {
				t.Fatalf("two-hop candidate over latT: %v", tc.EstRTT)
			}
		}
		// Host-unit accounting.
		var hosts int
		for _, oc := range sel.OneHop {
			hosts += len(w.pop.Cluster(oc.Cluster).Hosts)
		}
		if hosts != sel.OneHopHosts {
			t.Fatalf("OneHopHosts = %d, recomputed %d", sel.OneHopHosts, hosts)
		}
		if sel.QualityPaths() != int64(sel.OneHopHosts)+sel.TwoHopPairs {
			t.Fatal("QualityPaths accounting mismatch")
		}
	}
	if done < 10 {
		t.Fatalf("only %d usable sessions", done)
	}
}

func TestSelectCloseRelayTwoHopOnlyWhenSmall(t *testing.T) {
	w := buildWorld(t, 250, 2000, 83)
	// SizeT=0: two-hop must never trigger.
	params := DefaultParams()
	params.SizeT = 0
	s := newSystem(t, w, params)
	for i := 0; i < 20; i++ {
		h1 := cluster.HostID(w.rng.Intn(w.pop.NumHosts()))
		h2 := cluster.HostID(w.rng.Intn(w.pop.NumHosts()))
		if h1 == h2 {
			continue
		}
		sel, err := s.SelectCloseRelay(h1, h2)
		if err != nil {
			continue
		}
		if len(sel.TwoHop) != 0 {
			t.Fatal("two-hop candidates despite SizeT=0")
		}
		if sel.Messages != 4 {
			t.Fatalf("one-hop-only session cost %d, want exactly 4", sel.Messages)
		}
	}
}

func TestSelectCloseRelayErrors(t *testing.T) {
	w := buildWorld(t, 150, 600, 84)
	s := newSystem(t, w, DefaultParams())
	if _, err := s.SelectCloseRelay(1, 1); err == nil {
		t.Error("same-host session should fail")
	}
	s.FailHost(2)
	if _, err := s.SelectCloseRelay(2, 3); err == nil {
		t.Error("offline caller should fail")
	}
}

func TestSurrogateFailover(t *testing.T) {
	w := buildWorld(t, 200, 1500, 85)
	s := newSystem(t, w, DefaultParams())
	// Find a cluster with at least 3 hosts.
	var cid cluster.ClusterID = -1
	for _, c := range w.pop.Clusters() {
		if len(c.Hosts) >= 3 {
			cid = c.ID
			break
		}
	}
	if cid < 0 {
		t.Skip("no cluster with 3+ hosts")
	}
	first, _ := s.Surrogate(cid)
	if _, err := s.CloseSet(cid); err != nil {
		t.Fatal(err)
	}
	msgsBefore := s.BuildMessages()

	s.FailHost(first)
	second, ok := s.Surrogate(cid)
	if !ok || second == first {
		t.Fatalf("failover did not elect a new surrogate: %d -> %d", first, second)
	}
	// Rebuild on demand costs messages again.
	if _, err := s.CloseSet(cid); err != nil {
		t.Fatal(err)
	}
	if s.BuildMessages() <= msgsBefore {
		t.Error("close set not rebuilt after surrogate failover")
	}

	// Reviving the stronger original host displaces the stand-in.
	s.ReviveHost(first)
	cur, _ := s.Surrogate(cid)
	if w.pop.Host(first).NodalScore() > w.pop.Host(second).NodalScore() && cur != first {
		t.Errorf("revived stronger host %d did not reclaim surrogacy (current %d)", first, cur)
	}

	// Kill everything in the cluster: no surrogate, CloseSet errors.
	for _, id := range w.pop.Cluster(cid).Hosts {
		s.FailHost(id)
	}
	if _, ok := s.Surrogate(cid); ok {
		t.Error("dead cluster still has a surrogate")
	}
	// Drop cache then expect error.
	if _, err := s.CloseSet(cid); err == nil {
		t.Error("close set for dead cluster should fail")
	}
}

func TestPickRelays(t *testing.T) {
	w := buildWorld(t, 250, 2000, 86)
	s := newSystem(t, w, DefaultParams())
	for i := 0; i < 30; i++ {
		h1 := cluster.HostID(w.rng.Intn(w.pop.NumHosts()))
		h2 := cluster.HostID(w.rng.Intn(w.pop.NumHosts()))
		if h1 == h2 {
			continue
		}
		sel, err := s.SelectCloseRelay(h1, h2)
		if err != nil {
			continue
		}
		if len(sel.OneHop) == 0 {
			continue
		}
		relays := s.PickRelays(sel, 3)
		if len(relays) == 0 {
			t.Fatal("no relays picked despite candidates")
		}
		if len(relays) > 3 {
			t.Fatalf("picked %d relays, cap 3", len(relays))
		}
		for _, path := range relays {
			if len(path) < 1 || len(path) > 2 {
				t.Fatalf("relay path length %d", len(path))
			}
			for _, r := range path {
				if !s.Alive(r) {
					t.Fatal("picked a dead relay")
				}
			}
		}
		return
	}
	t.Skip("no session with candidates found")
}

func TestSelectedRelaysAreActuallyGood(t *testing.T) {
	// The core promise: when direct routing is slow, the best ASAP
	// candidate's ground-truth RTT should usually satisfy the 300 ms
	// requirement, and estimates should track ground truth.
	w := buildWorld(t, 300, 3000, 87)
	s := newSystem(t, w, DefaultParams())
	eng := overlay.NewEngine(w.model)

	within := 0
	total := 0
	for i := 0; i < 200 && total < 30; i++ {
		h1 := cluster.HostID(w.rng.Intn(w.pop.NumHosts()))
		h2 := cluster.HostID(w.rng.Intn(w.pop.NumHosts()))
		if h1 == h2 || w.pop.Host(h1).Cluster == w.pop.Host(h2).Cluster {
			continue
		}
		sel, err := s.SelectCloseRelay(h1, h2)
		if err != nil || len(sel.OneHop) == 0 {
			continue
		}
		total++
		// Ground-truth RTT through the best candidate's surrogate.
		r, ok := s.Surrogate(sel.OneHop[0].Cluster)
		if !ok {
			continue
		}
		p, ok := eng.OneHop(h1, r, h2)
		if !ok {
			continue
		}
		// Allow measurement noise: 1.5x of latT.
		if p.RTT < 3*s.Params().LatT/2 {
			within++
		}
	}
	if total < 10 {
		t.Skip("not enough candidate sessions")
	}
	if frac := float64(within) / float64(total); frac < 0.8 {
		t.Errorf("only %.2f of best candidates near latT; estimates unmoored from ground truth", frac)
	}
}
