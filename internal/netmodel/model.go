// Package netmodel is the ground-truth network substrate: it assigns
// latency and loss to every host pair from the AS topology, injects the
// congestion and failure conditions that make overlay relaying worthwhile
// (Section 3.3 of the paper), provides a King-style measurement prober
// with noise and non-response, and implements the ITU-T G.107 E-Model for
// MOS speech-quality scoring (Section 7.2).
//
// Everything a protocol actor may legitimately observe goes through
// Prober; the Model itself is the omniscient view reserved for scoring.
package netmodel

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asap/internal/asgraph"
	"asap/internal/cluster"
	"asap/internal/sim"
)

// Condition describes an injected AS impairment.
type Condition struct {
	// ExtraOneWay is added to the one-way delay of every path transiting
	// the AS.
	ExtraOneWay time.Duration
	// LossRate is the additional packet loss rate contributed by the AS,
	// in [0, 1).
	LossRate float64
}

// Config parameterizes the latency/loss model.
type Config struct {
	// PropagationKmPerMs converts fiber distance to delay; ~200 km/ms.
	PropagationKmPerMs float64
	// PerHopOneWay is per-AS-hop processing/queueing delay.
	PerHopOneWay time.Duration
	// IntraASOneWay is the delay inside an endpoint or transit AS.
	IntraASOneWay time.Duration
	// BaseLossRate is the per-AS-hop background loss rate.
	BaseLossRate float64

	// CongestedFrac is the fraction of transit ASes with moderate
	// congestion; SevereFrac the fraction with severe (multi-second)
	// impairment — these produce the paper's Fig. 2(a) tail, including
	// the ~10 sessions above 5 s RTT.
	CongestedFrac float64
	SevereFrac    float64
	// CongestedOneWay bounds the moderate extra one-way delay.
	CongestedMinOneWay, CongestedMaxOneWay time.Duration
	// SevereOneWay bounds the severe extra one-way delay.
	SevereMinOneWay, SevereMaxOneWay time.Duration
	// CongestedLossMax bounds extra loss on congested ASes.
	CongestedLossMax float64

	// TIVSpread controls per-link circuitousness: each AS link's latency
	// is inflated by a deterministic factor in [1, 1+TIVSpread], skewed
	// toward 1. Real inter-AS links do not follow geodesics (undersea
	// cable detours, sparse peering), producing the triangle-inequality
	// violations that make one-hop relays beat direct routing for ~60%
	// of sessions in Figure 2(b).
	TIVSpread float64
	// TIVMinKm restricts circuitousness to long-haul links: short
	// intra-region links are laid close to geodesics, while undersea and
	// transcontinental segments detour. Keeping short links clean also
	// makes the RTT distribution scale-invariant — path hop count grows
	// with world size, but the number of long-haul segments per path
	// does not.
	TIVMinKm float64
}

// DefaultConfig returns the calibrated defaults used by the evaluation.
func DefaultConfig() Config {
	return Config{
		PropagationKmPerMs: 200,
		PerHopOneWay:       800 * time.Microsecond,
		IntraASOneWay:      600 * time.Microsecond,
		BaseLossRate:       0.0002,
		CongestedFrac:      0.012,
		SevereFrac:         0.004,
		CongestedMinOneWay: 30 * time.Millisecond,
		CongestedMaxOneWay: 250 * time.Millisecond,
		SevereMinOneWay:    500 * time.Millisecond,
		SevereMaxOneWay:    2800 * time.Millisecond,
		CongestedLossMax:   0.04,
		TIVSpread:          1.8,
		TIVMinKm:           700,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.PropagationKmPerMs <= 0:
		return fmt.Errorf("netmodel: PropagationKmPerMs must be > 0")
	case c.BaseLossRate < 0 || c.BaseLossRate >= 1:
		return fmt.Errorf("netmodel: BaseLossRate must be in [0,1)")
	case c.CongestedFrac < 0 || c.CongestedFrac > 1 || c.SevereFrac < 0 || c.SevereFrac > 1:
		return fmt.Errorf("netmodel: congestion fractions must be in [0,1]")
	case c.CongestedMinOneWay > c.CongestedMaxOneWay:
		return fmt.Errorf("netmodel: congested delay bounds inverted")
	case c.SevereMinOneWay > c.SevereMaxOneWay:
		return fmt.Errorf("netmodel: severe delay bounds inverted")
	case c.TIVSpread < 0:
		return fmt.Errorf("netmodel: TIVSpread must be >= 0")
	case c.TIVMinKm < 0:
		return fmt.Errorf("netmodel: TIVMinKm must be >= 0")
	}
	return nil
}

// cacheShards stripes the cluster-pair RTT cache so concurrent lookups
// from many goroutines contend on independent locks. 64 shards keeps
// contention negligible at GOMAXPROCS-scale worker pools while the
// fixed-size array stays cheap to allocate per Model (one stripe cost
// two workers ~16 % of their throughput, DESIGN.md §9).
const cacheShards = 64

// rttShard is one stripe of the cluster-pair cache.
type rttShard struct {
	mu sync.RWMutex
	m  map[uint64]pathStats
}

// Model is the omniscient ground-truth network. All methods are safe for
// concurrent use: the cluster-pair cache is striped across cacheShards
// locks, and the mutable condition map has its own RWMutex.
//
// Lock ordering: condMu before any shard mutex. Readers never hold both;
// SetCondition/ResetConditions take condMu then drop each shard in turn.
type Model struct {
	cfg    Config
	g      *asgraph.Graph
	router *asgraph.Router
	pop    *cluster.Population

	condMu     sync.RWMutex
	conditions map[asgraph.ASN]Condition
	// condGen increments on every condition mutation; cache fills started
	// under an older generation are discarded instead of stored, so a
	// concurrent SetCondition can never leave a stale entry behind.
	condGen atomic.Uint64

	// tivSeed randomizes the deterministic per-link circuitousness hash.
	tivSeed uint64

	shards [cacheShards]rttShard // cluster-pair cache
}

type pathStats struct {
	rtt  time.Duration
	loss float64
	hops int
	ok   bool
}

func (m *Model) shard(key uint64) *rttShard {
	return &m.shards[(key^key>>32)%cacheShards]
}

func (m *Model) initShards() {
	for i := range m.shards {
		m.shards[i].m = make(map[uint64]pathStats)
	}
}

// dropCacheLocked empties every shard. Callers must hold condMu (write)
// and must have bumped condGen first, so in-flight fills observe the new
// generation and discard their results.
func (m *Model) dropCacheLocked() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.m = make(map[uint64]pathStats)
		sh.mu.Unlock()
	}
}

// New builds a Model over the world, injecting congestion per cfg using
// rng. The Population may be nil when only AS-level queries are needed.
func New(g *asgraph.Graph, router *asgraph.Router, pop *cluster.Population, cfg Config, rng *sim.RNG) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:        cfg,
		g:          g,
		router:     router,
		pop:        pop,
		conditions: make(map[asgraph.ASN]Condition),
		tivSeed:    uint64(rng.Int63()),
	}
	m.initShards()
	// Impairments land on transit infrastructure that paths can route
	// around (Fig. 4's congested AS H), never on an AS that is some
	// stub's only uplink: congestion there is unbypassable by any relay,
	// and the paper's latent sessions were all rescuable.
	soleUplink := make(map[asgraph.ASN]bool)
	for _, asn := range g.ASNs() {
		if g.Node(asn).Tier != asgraph.TierStub {
			continue
		}
		var providers []asgraph.ASN
		for _, e := range g.Edges(asn) {
			if e.Rel == asgraph.RelC2P {
				providers = append(providers, e.To)
			}
		}
		if len(providers) == 1 {
			soleUplink[providers[0]] = true
		}
	}
	for _, asn := range g.ASNs() {
		n := g.Node(asn)
		if n.Tier == asgraph.TierStub {
			continue
		}
		if soleUplink[asn] {
			// Mild congestion only: enough to shape the bulk RTT
			// distribution, not enough to strand its captive stubs above
			// the quality threshold on its own.
			if rng.Bool(cfg.CongestedFrac) {
				m.conditions[asn] = Condition{
					ExtraOneWay: time.Duration(rng.Uniform(
						float64(cfg.CongestedMinOneWay),
						float64(cfg.CongestedMinOneWay)+
							(float64(cfg.CongestedMaxOneWay)-float64(cfg.CongestedMinOneWay))/4)),
					LossRate: rng.Uniform(0, cfg.CongestedLossMax/2),
				}
			}
			continue
		}
		switch {
		case rng.Bool(cfg.SevereFrac):
			m.conditions[asn] = Condition{
				ExtraOneWay: time.Duration(rng.Uniform(
					float64(cfg.SevereMinOneWay), float64(cfg.SevereMaxOneWay))),
				LossRate: rng.Uniform(0.02, 0.15),
			}
		case rng.Bool(cfg.CongestedFrac):
			m.conditions[asn] = Condition{
				ExtraOneWay: time.Duration(rng.Uniform(
					float64(cfg.CongestedMinOneWay), float64(cfg.CongestedMaxOneWay))),
				LossRate: rng.Uniform(0, cfg.CongestedLossMax),
			}
		}
	}
	return m, nil
}

// WithPopulation returns a model over the same graph, conditions and
// link circuitousness but a different host population — the paired
// scalability experiment of Figure 17 densifies the population while
// holding the network fixed. The cluster-pair cache starts empty (cluster
// IDs belong to the population).
func (m *Model) WithPopulation(pop *cluster.Population) *Model {
	m.condMu.RLock()
	defer m.condMu.RUnlock()
	cp := &Model{
		cfg:        m.cfg,
		g:          m.g,
		router:     m.router,
		pop:        pop,
		conditions: make(map[asgraph.ASN]Condition, len(m.conditions)),
		tivSeed:    m.tivSeed,
	}
	cp.initShards()
	for k, v := range m.conditions {
		cp.conditions[k] = v
	}
	return cp
}

// SetCondition injects or replaces an impairment on an AS (used by tests
// and the churn example). Passing a zero Condition clears it.
func (m *Model) SetCondition(asn asgraph.ASN, c Condition) {
	m.condMu.Lock()
	defer m.condMu.Unlock()
	if c == (Condition{}) {
		delete(m.conditions, asn)
	} else {
		m.conditions[asn] = c
	}
	// Conditions affect cached paths; invalidate in-flight fills, then
	// drop the cache.
	m.condGen.Add(1)
	m.dropCacheLocked()
}

// ResetConditions removes every injected impairment and drops the
// cluster-pair cache, returning the model to its post-New baseline minus
// the randomly injected congestion. Used by tests that interleave cache
// drops with concurrent lookups.
func (m *Model) ResetConditions() {
	m.condMu.Lock()
	defer m.condMu.Unlock()
	m.conditions = make(map[asgraph.ASN]Condition)
	m.condGen.Add(1)
	m.dropCacheLocked()
}

// Condition returns the impairment on asn, if any.
func (m *Model) Condition(asn asgraph.ASN) (Condition, bool) {
	m.condMu.RLock()
	defer m.condMu.RUnlock()
	c, ok := m.conditions[asn]
	return c, ok
}

// CongestedASes returns every AS with an injected impairment, in
// ascending ASN order: the set lives in a map, and handing callers the
// randomized iteration order would leak nondeterminism into any report
// or decision built from it.
func (m *Model) CongestedASes() []asgraph.ASN {
	m.condMu.RLock()
	defer m.condMu.RUnlock()
	out := make([]asgraph.ASN, 0, len(m.conditions))
	for asn := range m.conditions {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Graph returns the underlying AS graph.
func (m *Model) Graph() *asgraph.Graph { return m.g }

// Router returns the policy router.
func (m *Model) Router() *asgraph.Router { return m.router }

// Population returns the host population (may be nil).
func (m *Model) Population() *cluster.Population { return m.pop }

// linkTIV returns the deterministic circuitousness multiplier of the
// undirected link a-b: 1 + TIVSpread * u^3 for a per-link uniform u, so
// most links are near-geodesic and a tail is strongly detoured.
func (m *Model) linkTIV(a, b asgraph.ASN) float64 {
	if m.cfg.TIVSpread == 0 {
		return 1
	}
	if a > b {
		a, b = b, a
	}
	// FNV-1a over (seed, a, b).
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(m.tivSeed)
	mix(uint64(a))
	mix(uint64(b))
	u := float64(h>>11) / float64(1<<53)
	return 1 + m.cfg.TIVSpread*u*u*u
}

func (m *Model) linkOneWay(a, b asgraph.ASN) time.Duration {
	na, nb := m.g.Node(a), m.g.Node(b)
	dx, dy := na.X-nb.X, na.Y-nb.Y
	km := math.Sqrt(dx*dx + dy*dy)
	mult := 1.0
	if km > m.cfg.TIVMinKm {
		mult = m.linkTIV(a, b)
	}
	prop := time.Duration(km / m.cfg.PropagationKmPerMs * mult * float64(time.Millisecond))
	return prop + m.cfg.PerHopOneWay
}

// pathOneWay computes one-way delay and loss along an AS path, applying
// the conditions of every AS on it (endpoints included: an impaired edge
// AS hurts its own hosts too).
func (m *Model) pathOneWay(path []asgraph.ASN) (time.Duration, float64) {
	d := m.cfg.IntraASOneWay * time.Duration(len(path))
	success := 1.0
	for i, asn := range path {
		if i+1 < len(path) {
			d += m.linkOneWay(asn, path[i+1])
			success *= 1 - m.cfg.BaseLossRate
		}
		if c, ok := m.conditions[asn]; ok {
			d += c.ExtraOneWay
			success *= 1 - c.LossRate
		}
	}
	return d, 1 - success
}

func pairKey(a, b cluster.ClusterID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// clusterPath returns the AS-level stats between two clusters, caching by
// cluster pair (property 1 of Section 6: intra-cluster latency spread is
// negligible next to inter-cluster latency).
func (m *Model) clusterPath(c1, c2 cluster.ClusterID) pathStats {
	key := pairKey(c1, c2)
	sh := m.shard(key)
	sh.mu.RLock()
	st, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return st
	}

	// Compute outside any shard lock; concurrent misses for the same pair
	// duplicate work but arrive at identical values (asPath is a pure
	// function of the route tables and the condition map).
	gen := m.condGen.Load()
	a := m.pop.Cluster(c1).AS
	b := m.pop.Cluster(c2).AS
	st = m.asPath(a, b)

	sh.mu.Lock()
	// Store only if no condition mutation raced with the fill: SetCondition
	// bumps condGen before it empties the shards, so a matching generation
	// here proves the value is still current.
	if m.condGen.Load() == gen {
		sh.m[key] = st
	}
	sh.mu.Unlock()
	return st
}

// asPath computes path stats between two ASes. It holds condMu for
// reading so the condition map is observed as one consistent snapshot
// across the whole path walk. The table is always keyed on the smaller
// ASN: forward and reverse policy paths can legitimately differ, and RTT
// ground truth must not depend on router-cache state.
func (m *Model) asPath(a, b asgraph.ASN) pathStats {
	m.condMu.RLock()
	defer m.condMu.RUnlock()
	if a == b {
		oneWay := m.cfg.IntraASOneWay
		var loss float64
		if c, ok := m.conditions[a]; ok {
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
	oneWay, loss := m.pathOneWay(path)
	return pathStats{rtt: 2 * oneWay, loss: loss, hops: len(path) - 1, ok: true}
}

// ASPathHops returns the policy AS-hop count between two ASes.
func (m *Model) ASPathHops(a, b asgraph.ASN) (int, bool) {
	st := m.asPath(a, b)
	return st.hops, st.ok
}

// HostStats returns the ground-truth RTT and loss between two hosts from
// one cache visit: the cluster-pair path RTT plus both hosts' access
// delays in each direction, and the cluster-pair loss. Same-host queries
// return zero RTT; same-cluster pairs pay access delay only.
func (m *Model) HostStats(h1, h2 cluster.HostID) PairStat {
	if h1 == h2 {
		return PairStat{OK: true}
	}
	a, b := m.pop.Host(h1), m.pop.Host(h2)
	access := 2 * (a.AccessDelay + b.AccessDelay)
	if a.Cluster == b.Cluster {
		return PairStat{RTT: access, OK: true}
	}
	st := m.clusterPath(a.Cluster, b.Cluster)
	if !st.ok {
		return PairStat{}
	}
	return PairStat{RTT: st.rtt + access, Loss: st.loss, OK: true}
}

// HostRTT returns the ground-truth RTT between two hosts.
func (m *Model) HostRTT(h1, h2 cluster.HostID) (time.Duration, bool) {
	st := m.HostStats(h1, h2)
	return st.RTT, st.OK
}

// clusterStats returns the ground-truth delegate-to-delegate stats
// between two clusters.
func (m *Model) clusterStats(c1, c2 cluster.ClusterID) PairStat {
	if c1 == c2 {
		return PairStat{RTT: 2 * m.cfg.IntraASOneWay, OK: true}
	}
	st := m.clusterPath(c1, c2)
	return PairStat{RTT: st.rtt, Loss: st.loss, OK: st.ok}
}

// ClusterRTT returns the ground-truth delegate-to-delegate RTT between two
// clusters.
func (m *Model) ClusterRTT(c1, c2 cluster.ClusterID) (time.Duration, bool) {
	st := m.clusterStats(c1, c2)
	return st.RTT, st.OK
}
