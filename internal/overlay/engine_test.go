package overlay_test

import (
	"testing"
	"time"

	"asap/internal/cluster"
	"asap/internal/eval"
	"asap/internal/overlay"
)

// buildWorld is eval.BuildWorld at the given size and seed.
func buildWorld(t testing.TB, ases, hosts int, seed int64) *eval.World {
	t.Helper()
	w, err := eval.BuildWorld(eval.Profile{ASes: ases, Hosts: hosts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestOneHopAddsRelayDelay(t *testing.T) {
	w := buildWorld(t, 300, 2000, 70)
	e, m, rng := w.Engine, w.Model, w.RNG
	for i := 0; i < 50; i++ {
		s := w.RandomSessions(1)[0]
		r := cluster.HostID(rng.Intn(m.Population().NumHosts()))
		p, ok := e.OneHop(s.A, r, s.B)
		if !ok {
			continue
		}
		r1, _ := m.HostRTT(s.A, r)
		r2, _ := m.HostRTT(r, s.B)
		if p.RTT != r1+r2+overlay.RelayRTT {
			t.Fatalf("OneHop RTT = %v, want %v", p.RTT, r1+r2+overlay.RelayRTT)
		}
		if p.Kind != overlay.KindOneHop || len(p.Relays) != 1 || p.Relays[0] != r {
			t.Fatalf("bad path metadata: %+v", p)
		}
		if p.Loss < 0 || p.Loss >= 1 {
			t.Fatalf("loss out of range: %v", p.Loss)
		}
	}
}

func TestTwoHopAddsTwoRelayDelays(t *testing.T) {
	w := buildWorld(t, 300, 2000, 71)
	e, m, rng := w.Engine, w.Model, w.RNG
	s := w.RandomSessions(1)[0]
	r1 := cluster.HostID(rng.Intn(m.Population().NumHosts()))
	r2 := cluster.HostID(rng.Intn(m.Population().NumHosts()))
	p, ok := e.TwoHop(s.A, r1, r2, s.B)
	if !ok {
		t.Skip("unreachable combination")
	}
	x1, _ := m.HostRTT(s.A, r1)
	x2, _ := m.HostRTT(r1, r2)
	x3, _ := m.HostRTT(r2, s.B)
	if p.RTT != x1+x2+x3+2*overlay.RelayRTT {
		t.Fatalf("TwoHop RTT = %v, want %v", p.RTT, x1+x2+x3+2*overlay.RelayRTT)
	}
	if p.Kind != overlay.KindTwoHop || len(p.Relays) != 2 {
		t.Fatalf("bad path metadata: %+v", p)
	}
}

func TestOptimalNeverWorseThanDirect(t *testing.T) {
	w := buildWorld(t, 300, 2000, 72)
	e := w.Engine
	for i := 0; i < 20; i++ {
		s := w.RandomSessions(1)[0]
		direct, okD := e.Direct(s.A, s.B)
		opt, okO := e.Optimal(s.A, s.B)
		if !okO {
			t.Fatal("Optimal found nothing")
		}
		if okD && opt.RTT > direct.RTT {
			t.Fatalf("Optimal RTT %v worse than direct %v", opt.RTT, direct.RTT)
		}
	}
}

func TestOptimalOneHopMatchesBruteForce(t *testing.T) {
	w := buildWorld(t, 200, 600, 73)
	e, pop := w.Engine, w.Pop
	s := w.RandomSessions(1)[0]
	got, ok := e.OptimalOneHop(s.A, s.B)
	if !ok {
		t.Fatal("no one-hop path")
	}
	// Brute force over all delegate relays.
	var want time.Duration = 1<<62 - 1
	ha, hb := pop.Host(s.A), pop.Host(s.B)
	for _, c := range pop.Clusters() {
		if c.ID == ha.Cluster || c.ID == hb.Cluster {
			continue
		}
		if p, ok := e.OneHop(s.A, c.Delegate, s.B); ok && p.RTT < want {
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
	w := buildWorld(t, 300, 1500, 74)
	e := w.Engine
	worse := 0
	for i := 0; i < 10; i++ {
		s := w.RandomSessions(1)[0]
		oneOnly, ok1 := e.OptimalOneHop(s.A, s.B)
		if direct, ok := e.Direct(s.A, s.B); ok && (!ok1 || direct.RTT < oneOnly.RTT) {
			oneOnly, ok1 = direct, true
		}
		both, ok2 := e.Optimal(s.A, s.B)
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

// TestOneHopBatchAllocs holds the batch form to what its paths are made
// of: one Relays slice per connected path and nothing else.
func TestOneHopBatchAllocs(t *testing.T) {
	w := buildWorld(t, 200, 1500, 74)
	e, pop, rng := w.Engine, w.Pop, w.RNG
	s := w.RandomSessions(1)[0]
	relays := make([]cluster.HostID, 40)
	for i := range relays {
		relays[i] = cluster.HostID(rng.Intn(pop.NumHosts()))
	}
	out := make([]overlay.Path, len(relays))
	e.OneHopBatch(s.A, relays, s.B, out) // warm the cache
	connected := 0
	for i, p := range out {
		if want, ok := e.OneHop(s.A, relays[i], s.B); ok != (p.Kind != 0) || p.RTT != want.RTT || p.Loss != want.Loss {
			t.Fatalf("relay %d: batch %+v, OneHop %+v (ok=%v)", i, p, want, ok)
		}
		if p.Kind != 0 {
			connected++
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		e.OneHopBatch(s.A, relays, s.B, out)
	}); n != float64(connected) {
		t.Errorf("warm OneHopBatch allocates %.1f per run, want %d (one Relays slice per path)", n, connected)
	}
}
