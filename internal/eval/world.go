// Package eval is the experiment harness: it assembles complete simulated
// worlds, generates calling-session workloads, runs every relay-selection
// method, and regenerates each table and figure of the paper (see the
// per-experiment index in DESIGN.md).
package eval

import (
	"fmt"
	"time"

	"asap/internal/asgraph"
	"asap/internal/baseline"
	"asap/internal/bgp"
	"asap/internal/cluster"
	"asap/internal/core"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/stats"
)

// Profile is a world scale. The paper profile matches the measured 2005
// dataset: 20,955 ASes, 7,171 populated prefixes, 23,366 online delegate
// IPs (103,625 for the scalability figure), 100,000 sessions.
type Profile struct {
	Name     string
	ASes     int
	Hosts    int
	Sessions int
	// Seed drives all randomness for the profile.
	Seed int64
	// PopulatedFrac overrides the fraction of prefixes holding online
	// peers (0 = the cluster package default). The paper profile uses
	// 0.16 to land on ~7,171 populated prefixes as measured.
	PopulatedFrac float64
}

// Predefined profiles (see DESIGN.md section 6).
var (
	// Tiny is for unit tests.
	Tiny = Profile{Name: "tiny", ASes: 200, Hosts: 2000, Sessions: 3000, Seed: 1}
	// Small is for CI benches and examples.
	Small = Profile{Name: "small", ASes: 2000, Hosts: 12000, Sessions: 10000, Seed: 1}
	// Paper is the full 2005-scale reproduction.
	Paper = Profile{Name: "paper", ASes: 20955, Hosts: 23366, Sessions: 100000, Seed: 1, PopulatedFrac: 0.16}
)

// ProfileByName resolves a profile name.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "paper":
		return Paper, nil
	default:
		return Profile{}, fmt.Errorf("eval: unknown profile %q (tiny|small|paper)", name)
	}
}

// World is a fully assembled simulation universe.
type World struct {
	Profile Profile
	Graph   *asgraph.Graph
	Alloc   *bgp.Allocation
	Pop     *cluster.Population
	Router  *asgraph.Router
	Model   *netmodel.Model
	Prober  *netmodel.Prober
	Engine  *overlay.Engine
	RNG     *sim.RNG
}

// BuildWorld assembles a world for the profile: topology, prefix
// allocation, population, ground-truth model with injected congestion,
// and a measurement prober.
func BuildWorld(p Profile) (*World, error) {
	rng := sim.NewRNG(p.Seed)
	g, err := asgraph.Generate(asgraph.DefaultGenConfig(p.ASes), rng)
	if err != nil {
		return nil, fmt.Errorf("eval: topology: %w", err)
	}
	alloc, err := bgp.Allocate(g, bgp.DefaultAllocConfig(), rng)
	if err != nil {
		return nil, fmt.Errorf("eval: allocation: %w", err)
	}
	popCfg := cluster.DefaultGenConfig(p.Hosts)
	if p.PopulatedFrac > 0 {
		popCfg.PopulatedFrac = p.PopulatedFrac
	}
	pop, err := cluster.Generate(alloc, popCfg, rng)
	if err != nil {
		return nil, fmt.Errorf("eval: population: %w", err)
	}
	// Size the route-table cache to the populated ASes: the sweeps touch
	// (almost) exactly those destinations (a small figure run fills 1,643
	// of 1,738 slots) and FIFO eviction under a cyclic scan never settles.
	router := asgraph.NewRouter(g, len(pop.PopulatedASes())+512)
	model, err := netmodel.New(g, router, pop, netmodel.DefaultConfig(), rng)
	if err != nil {
		return nil, fmt.Errorf("eval: model: %w", err)
	}
	prober, err := netmodel.NewProber(model, netmodel.DefaultProberConfig(), rng, nil)
	if err != nil {
		return nil, fmt.Errorf("eval: prober: %w", err)
	}
	return &World{
		Profile: p,
		Graph:   g,
		Alloc:   alloc,
		Pop:     pop,
		Router:  router,
		Model:   model,
		Prober:  prober,
		Engine:  overlay.NewEngine(model),
		RNG:     rng,
	}, nil
}

// ScaledCopy returns a world sharing this one's topology, prefix
// allocation, congestion conditions and link circuitousness, but with a
// population ratio times larger — Figure 17's paired scalability setup
// (23,366 -> 103,625 online IPs over the same Internet).
func (w *World) ScaledCopy(ratio float64) (*World, error) {
	if ratio <= 0 {
		return nil, fmt.Errorf("eval: scale ratio must be > 0, got %g", ratio)
	}
	rng := sim.NewRNG(w.Profile.Seed*7919 + 17)
	popCfg := cluster.DefaultGenConfig(int(float64(w.Profile.Hosts) * ratio))
	if w.Profile.PopulatedFrac > 0 {
		popCfg.PopulatedFrac = w.Profile.PopulatedFrac
	}
	pop, err := cluster.Generate(w.Alloc, popCfg, rng)
	if err != nil {
		return nil, fmt.Errorf("eval: scaled population: %w", err)
	}
	model := w.Model.WithPopulation(pop)
	prober, err := netmodel.NewProber(model, netmodel.DefaultProberConfig(), rng, nil)
	if err != nil {
		return nil, err
	}
	profile := w.Profile
	profile.Name = w.Profile.Name + "-scaled"
	profile.Hosts = pop.NumHosts()
	return &World{
		Profile: profile,
		Graph:   w.Graph,
		Alloc:   w.Alloc,
		Pop:     pop,
		Router:  w.Router,
		Model:   model,
		Prober:  prober,
		Engine:  overlay.NewEngine(model),
		RNG:     rng,
	}, nil
}

// Session is one VoIP call between two end hosts.
type Session struct {
	A, B cluster.HostID
}

// RandomSessions draws n sessions with endpoints in distinct clusters
// (the paper pairs random delegate IPs, which are distinct clusters by
// construction).
func (w *World) RandomSessions(n int) []Session {
	out := make([]Session, 0, n)
	for len(out) < n {
		a := cluster.HostID(w.RNG.Intn(w.Pop.NumHosts()))
		b := cluster.HostID(w.RNG.Intn(w.Pop.NumHosts()))
		if a == b || w.Pop.Host(a).Cluster == w.Pop.Host(b).Cluster {
			continue
		}
		out = append(out, Session{A: a, B: b})
	}
	return out
}

// DirectRTT returns the ground-truth direct RTT of a session.
func (w *World) DirectRTT(s Session) (time.Duration, bool) {
	return w.Model.HostRTT(s.A, s.B)
}

// LatentSessions filters sessions whose direct RTT exceeds the threshold
// — the ~1% of calls that need relaying (Section 7.1: "about 1,000
// sessions having their direct IP routing RTTs above 300 ms").
func (w *World) LatentSessions(sessions []Session, threshold time.Duration) []Session {
	var out []Session
	for _, s := range sessions {
		if rtt, ok := w.DirectRTT(s); ok && rtt > threshold {
			out = append(out, s)
		}
	}
	return out
}

// CalibrateK applies the paper's rule for choosing the valley-free BFS
// bound: "more than 90% of the sessions with direct IP routing RTTs below
// 300 ms have no more than 4 AS hops. Therefore, we can set k to 4"
// (Section 6.2). The constant 4 is a property of the 2005 Internet's
// path-length distribution; this function measures the same quantile on
// the world at hand, so synthetic topologies with longer paths get a
// proportionally wider horizon. sampleCap bounds the measurement cost
// (0 = all sessions).
func (w *World) CalibrateK(sessions []Session, threshold time.Duration, frac float64, sampleCap int) int {
	if frac <= 0 || frac > 1 {
		frac = 0.9
	}
	var hops []float64
	for i, s := range sessions {
		if sampleCap > 0 && i >= sampleCap {
			break
		}
		rtt, ok := w.DirectRTT(s)
		if !ok || rtt >= threshold {
			continue
		}
		ha, hb := w.Pop.Host(s.A), w.Pop.Host(s.B)
		if h, ok := w.Model.ASPathHops(ha.AS, hb.AS); ok {
			hops = append(hops, float64(h))
		}
	}
	if len(hops) == 0 {
		return core.DefaultParams().K
	}
	k := int(stats.Quantile(hops, frac) + 0.999)
	if k < 1 {
		k = 1
	}
	return k
}

// NewASAP builds an ASAP system over the world with the given
// parameters. The system is seeded from the profile, so its close-set
// probe streams are deterministic per cluster and independent of the
// order (or concurrency) in which the evaluation builds them.
func (w *World) NewASAP(params core.Params) (*core.System, error) {
	return core.NewSystemSeeded(w.Model, w.Prober, params, w.Profile.Seed)
}

// NewBaselines builds the paper's three baselines with its probe budgets
// (DEDI 80, RAND 200, MIX 40+120), scaled down when the world has fewer
// clusters than probes.
func (w *World) NewBaselines(dediN, randN, mixDedi, mixRand int) (*baseline.Dedi, *baseline.Rand, *baseline.Mix, error) {
	if c := w.Pop.NumClusters(); dediN > c {
		dediN = c
	}
	if c := w.Pop.NumClusters(); mixDedi > c {
		mixDedi = c
	}
	d, err := baseline.NewDedi(w.Pop, w.Model, w.Prober, dediN)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := baseline.NewRand(w.Pop, w.Prober, w.RNG, randN)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := baseline.NewMix(w.Pop, w.Model, w.Prober, w.RNG, mixDedi, mixRand)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, r, m, nil
}
