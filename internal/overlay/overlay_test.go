package overlay

import (
	"testing"
	"time"

	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/cluster"
	"asap/internal/netmodel"
	"asap/internal/sim"
)

func testEngine(t testing.TB, ases, hosts int, seed int64) (*Engine, *sim.RNG) {
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
	return NewEngine(m), rng
}

func randHosts(e *Engine, rng *sim.RNG) (cluster.HostID, cluster.HostID) {
	pop := e.Model().Population()
	for {
		a := cluster.HostID(rng.Intn(pop.NumHosts()))
		b := cluster.HostID(rng.Intn(pop.NumHosts()))
		if pop.Host(a).Cluster != pop.Host(b).Cluster {
			return a, b
		}
	}
}

func TestOneHopAddsRelayDelay(t *testing.T) {
	e, rng := testEngine(t, 300, 2000, 70)
	m := e.Model()
	for i := 0; i < 50; i++ {
		a, b := randHosts(e, rng)
		r := cluster.HostID(rng.Intn(m.Population().NumHosts()))
		p, ok := e.OneHop(a, r, b)
		if !ok {
			continue
		}
		r1, _ := m.HostRTT(a, r)
		r2, _ := m.HostRTT(r, b)
		if p.RTT != r1+r2+RelayRTT {
			t.Fatalf("OneHop RTT = %v, want %v", p.RTT, r1+r2+RelayRTT)
		}
		if p.Kind != KindOneHop || len(p.Relays) != 1 || p.Relays[0] != r {
			t.Fatalf("bad path metadata: %+v", p)
		}
		if p.Loss < 0 || p.Loss >= 1 {
			t.Fatalf("loss out of range: %v", p.Loss)
		}
	}
}

func TestTwoHopAddsTwoRelayDelays(t *testing.T) {
	e, rng := testEngine(t, 300, 2000, 71)
	m := e.Model()
	a, b := randHosts(e, rng)
	r1 := cluster.HostID(rng.Intn(m.Population().NumHosts()))
	r2 := cluster.HostID(rng.Intn(m.Population().NumHosts()))
	p, ok := e.TwoHop(a, r1, r2, b)
	if !ok {
		t.Skip("unreachable combination")
	}
	x1, _ := m.HostRTT(a, r1)
	x2, _ := m.HostRTT(r1, r2)
	x3, _ := m.HostRTT(r2, b)
	if p.RTT != x1+x2+x3+2*RelayRTT {
		t.Fatalf("TwoHop RTT = %v, want %v", p.RTT, x1+x2+x3+2*RelayRTT)
	}
	if p.Kind != KindTwoHop || len(p.Relays) != 2 {
		t.Fatalf("bad path metadata: %+v", p)
	}
}

func TestCombineLossNeverExceedsOne(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{0.5, 0.5, 0.75},
		{0.01, 0.01, 0.0199},
	}
	for _, c := range cases {
		got := combineLoss(c.a, c.b)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("combineLoss(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestOptimalNeverWorseThanDirect(t *testing.T) {
	e, rng := testEngine(t, 300, 2000, 72)
	for i := 0; i < 20; i++ {
		a, b := randHosts(e, rng)
		direct, okD := e.Direct(a, b)
		opt, okO := e.Optimal(a, b)
		if !okO {
			t.Fatal("Optimal found nothing")
		}
		if okD && opt.RTT > direct.RTT {
			t.Fatalf("Optimal RTT %v worse than direct %v", opt.RTT, direct.RTT)
		}
	}
}

func TestOptimalOneHopMatchesBruteForce(t *testing.T) {
	e, rng := testEngine(t, 200, 600, 73)
	pop := e.Model().Population()
	a, b := randHosts(e, rng)
	got, ok := e.OptimalOneHop(a, b)
	if !ok {
		t.Fatal("no one-hop path")
	}
	// Brute force over all delegate relays.
	var want time.Duration = 1<<62 - 1
	ha, hb := pop.Host(a), pop.Host(b)
	for _, c := range pop.Clusters() {
		if c.ID == ha.Cluster || c.ID == hb.Cluster {
			continue
		}
		if p, ok := e.OneHop(a, c.Delegate, b); ok && p.RTT < want {
			want = p.RTT
		}
	}
	if got.RTT != want {
		t.Errorf("OptimalOneHop = %v, brute force = %v", got.RTT, want)
	}
}

func TestOptimalTwoHopCanBeatOneHop(t *testing.T) {
	// The two-hop search must never be worse than the best of direct and
	// one-hop alone.
	e, rng := testEngine(t, 300, 1500, 74)
	worse := 0
	for i := 0; i < 10; i++ {
		a, b := randHosts(e, rng)
		oneOnly, ok1 := e.OptimalOneHop(a, b)
		if direct, ok := e.Direct(a, b); ok && (!ok1 || direct.RTT < oneOnly.RTT) {
			oneOnly, ok1 = direct, true
		}
		both, ok2 := e.Optimal(a, b)
		if !ok1 || !ok2 {
			continue
		}
		if both.RTT > oneOnly.RTT {
			worse++
		}
	}
	if worse > 0 {
		t.Errorf("two-hop search degraded the optimum in %d cases", worse)
	}
}

func TestPathQualityAndMOS(t *testing.T) {
	p := Path{Kind: KindDirect, RTT: 200 * time.Millisecond, Loss: 0.005}
	if !p.Quality() {
		t.Error("200ms should be a quality path")
	}
	slow := Path{Kind: KindDirect, RTT: 400 * time.Millisecond}
	if slow.Quality() {
		t.Error("400ms should not be a quality path")
	}
	if m1, m2 := p.MOS(-1), p.MOS(0.005); m1 != m2 {
		t.Errorf("loss override mismatch: %v vs %v", m1, m2)
	}
	if p.MOS(0.10) >= p.MOS(0.001) {
		t.Error("higher loss must not raise MOS")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindDirect: "direct", KindOneHop: "1-hop", KindTwoHop: "2-hop", Kind(9): "unknown",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestOneHopBatchAllocs holds the batch form to what its paths are made
// of: one Relays slice per connected path and nothing else.
func TestOneHopBatchAllocs(t *testing.T) {
	e, rng := testEngine(t, 200, 1500, 74)
	pop := e.Model().Population()
	a, b := randHosts(e, rng)
	relays := make([]cluster.HostID, 40)
	for i := range relays {
		relays[i] = cluster.HostID(rng.Intn(pop.NumHosts()))
	}
	out := make([]Path, len(relays))
	e.OneHopBatch(a, relays, b, out) // warm the cache
	connected := 0
	for i, p := range out {
		if want, ok := e.OneHop(a, relays[i], b); ok != (p.Kind != 0) || p.RTT != want.RTT || p.Loss != want.Loss {
			t.Fatalf("relay %d: batch %+v, OneHop %+v (ok=%v)", i, p, want, ok)
		}
		if p.Kind != 0 {
			connected++
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		e.OneHopBatch(a, relays, b, out)
	}); n != float64(connected) {
		t.Errorf("warm OneHopBatch allocates %.1f per run, want %d (one Relays slice per path)", n, connected)
	}
}
