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
	"slices"
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
// concurrent use: a path walk takes no lock (the link delays are fixed
// and the conditions are an immutable published snapshot), the
// cluster-pair cache is striped across cacheShards locks, and condition
// writers serialize on condMu.
//
// Lock ordering: condMu before any shard mutex. Readers never hold
// condMu; SetCondition/ResetConditions take it, then drop each shard in
// turn.
type Model struct {
	cfg    Config
	g      *asgraph.Graph
	router *asgraph.Router
	pop    *cluster.Population

	// linkDelay[k] is the one-way delay of half-edge k in the graph's
	// numbering (asgraph.Graph): linkOneWay, computed once per link in New.
	linkDelay []time.Duration
	// clusterAS[c] is the dense index of cluster c's AS, so a cluster-pair
	// lookup starts its walk without a map lookup.
	clusterAS []int32
	// asClusters inverts clusterAS in compressed-sparse-row form: the
	// clusters of the AS at dense index i are
	// asClusters[asClusterOff[i]:asClusterOff[i+1]], ascending.
	asClusterOff []int32
	asClusters   []cluster.ClusterID

	condMu sync.Mutex
	// conds is the published condition snapshot: element i is the
	// impairment on the AS at dense index i, zero for none. A published
	// slice is never written; writers copy it, edit the copy and publish
	// that, so a walk sees one consistent snapshot from one atomic load.
	conds atomic.Pointer[[]Condition]
	// condGen increments on every condition mutation, after the new
	// snapshot is published; cache fills started under an older
	// generation are discarded instead of stored, so a concurrent
	// SetCondition can never leave a stale entry behind.
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

// indexClusters fills clusterAS and its inverse. The population is
// allocated over this graph (bgp.Allocate hands out its ASes' prefixes),
// so every cluster's AS has an index.
func (m *Model) indexClusters() {
	if m.pop == nil {
		return
	}
	m.clusterAS = make([]int32, m.pop.NumClusters())
	m.asClusterOff = make([]int32, m.g.NumNodes()+1)
	for c := range m.clusterAS {
		ai, _ := m.g.Index(m.pop.Cluster(cluster.ClusterID(c)).AS)
		m.clusterAS[c] = ai
		m.asClusterOff[ai+1]++
	}
	for i := 1; i < len(m.asClusterOff); i++ {
		m.asClusterOff[i] += m.asClusterOff[i-1]
	}
	m.asClusters = make([]cluster.ClusterID, len(m.clusterAS))
	next := slices.Clone(m.asClusterOff[:len(m.asClusterOff)-1])
	for c, ai := range m.clusterAS {
		m.asClusters[next[ai]] = cluster.ClusterID(c)
		next[ai]++
	}
}

// ClustersAtIndex returns the clusters of the AS at dense index ai
// (asgraph.Graph.Index), ascending: Population.ClustersInAS without the
// map lookup, for a walk that already speaks indexes. Callers must not
// mutate the slice.
func (m *Model) ClustersAtIndex(ai int32) []cluster.ClusterID {
	return m.asClusters[m.asClusterOff[ai]:m.asClusterOff[ai+1]]
}

// dropCacheLocked empties every shard. Callers must hold condMu and must
// have bumped condGen first, so in-flight fills observe the new
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
		cfg:     cfg,
		g:       g,
		router:  router,
		pop:     pop,
		tivSeed: uint64(rng.Int63()),
	}
	m.initShards()
	m.indexClusters()
	m.linkDelay = make([]time.Duration, 0, 2*g.NumEdges())
	for _, asn := range g.ASNs() {
		for _, e := range g.Edges(asn) {
			m.linkDelay = append(m.linkDelay, m.linkOneWay(asn, e.To))
		}
	}
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
	conds := make([]Condition, g.NumNodes())
	for i, asn := range g.ASNs() {
		n := g.Node(asn)
		if n.Tier == asgraph.TierStub {
			continue
		}
		if soleUplink[asn] {
			// Mild congestion only: enough to shape the bulk RTT
			// distribution, not enough to strand its captive stubs above
			// the quality threshold on its own.
			if rng.Bool(cfg.CongestedFrac) {
				conds[i] = Condition{
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
			conds[i] = Condition{
				ExtraOneWay: time.Duration(rng.Uniform(
					float64(cfg.SevereMinOneWay), float64(cfg.SevereMaxOneWay))),
				LossRate: rng.Uniform(0.02, 0.15),
			}
		case rng.Bool(cfg.CongestedFrac):
			conds[i] = Condition{
				ExtraOneWay: time.Duration(rng.Uniform(
					float64(cfg.CongestedMinOneWay), float64(cfg.CongestedMaxOneWay))),
				LossRate: rng.Uniform(0, cfg.CongestedLossMax),
			}
		}
	}
	m.conds.Store(&conds)
	return m, nil
}

// WithPopulation returns a model over the same graph, conditions and
// link delays but a different host population — the paired scalability
// experiment of Figure 17 densifies the population while holding the
// network fixed. The cluster-pair cache starts empty (cluster IDs belong
// to the population). The two models share the current condition
// snapshot and then diverge: a later SetCondition on either publishes a
// copy.
func (m *Model) WithPopulation(pop *cluster.Population) *Model {
	cp := &Model{
		cfg:       m.cfg,
		g:         m.g,
		router:    m.router,
		pop:       pop,
		linkDelay: m.linkDelay,
		tivSeed:   m.tivSeed,
	}
	cp.initShards()
	cp.indexClusters()
	cp.conds.Store(m.conds.Load())
	return cp
}

// SetCondition injects or replaces an impairment on an AS (used by tests
// and the churn example). Passing a zero Condition clears it. An AS
// outside the graph lies on no path and carries no condition.
func (m *Model) SetCondition(asn asgraph.ASN, c Condition) {
	i, ok := m.g.Index(asn)
	if !ok {
		return
	}
	m.condMu.Lock()
	defer m.condMu.Unlock()
	conds := append([]Condition(nil), *m.conds.Load()...)
	conds[i] = c
	m.publishLocked(conds)
}

// ResetConditions removes every injected impairment and drops the
// cluster-pair cache, returning the model to its post-New baseline minus
// the randomly injected congestion. Used by tests that interleave cache
// drops with concurrent lookups.
func (m *Model) ResetConditions() {
	m.condMu.Lock()
	defer m.condMu.Unlock()
	m.publishLocked(make([]Condition, m.g.NumNodes()))
}

// publishLocked makes conds the condition snapshot and invalidates the
// cache. Callers hold condMu. The snapshot goes out before the generation
// moves: a fill that read the old generation is discarded at its store,
// and one that read the new generation also reads the new snapshot.
func (m *Model) publishLocked(conds []Condition) {
	m.conds.Store(&conds)
	m.condGen.Add(1)
	m.dropCacheLocked()
}

// Condition returns the impairment on asn, if any.
func (m *Model) Condition(asn asgraph.ASN) (Condition, bool) {
	i, ok := m.g.Index(asn)
	if !ok {
		return Condition{}, false
	}
	c := (*m.conds.Load())[i]
	return c, c != (Condition{})
}

// CongestedASes returns every AS with an injected impairment, in
// ascending ASN order (the snapshot's index order).
func (m *Model) CongestedASes() []asgraph.ASN {
	conds := *m.conds.Load()
	out := make([]asgraph.ASN, 0)
	for i, c := range conds {
		if c != (Condition{}) {
			out = append(out, m.g.ByIndex(int32(i)))
		}
	}
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

// linkOneWay is the one-way delay of the link a-b: propagation over the
// link's (possibly detoured) length plus per-hop processing. It is
// symmetric in a and b; New tabulates it per half-edge.
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
	// function of the route tables and the condition snapshot).
	gen := m.condGen.Load()
	st = m.indexPath(m.clusterAS[c1], m.clusterAS[c2])

	sh.mu.Lock()
	// Store only if no condition mutation raced with the fill: SetCondition
	// publishes its snapshot, bumps condGen and then empties the shards, so
	// a matching generation here proves the value is still current.
	if m.condGen.Load() == gen {
		sh.m[key] = st
	}
	sh.mu.Unlock()
	return st
}

// asPath computes path stats between two ASes from one condition
// snapshot. The table is always keyed on the smaller ASN: forward and
// reverse policy paths can legitimately differ, and RTT ground truth must
// not depend on router-cache state.
//
// The walk runs from the larger ASN's index to the smaller's over the
// route table, summing the tabulated link delays and each AS's condition
// and multiplying the per-hop and per-AS success factors in path order —
// the arithmetic, and so every bit of the result, of summing linkOneWay
// over RouteTable.Path.
func (m *Model) asPath(a, b asgraph.ASN) pathStats {
	ia, okA := m.g.Index(a)
	ib, okB := m.g.Index(b)
	switch {
	case okA && okB:
		return m.indexPath(ia, ib)
	case a == b:
		return pathStats{rtt: 2 * m.cfg.IntraASOneWay, ok: true}
	default:
		return pathStats{}
	}
}

// indexPath is asPath between the ASes at dense indexes ia and ib. Index
// order is ASN order, so the smaller index is the smaller ASN.
func (m *Model) indexPath(ia, ib int32) pathStats {
	conds := *m.conds.Load()
	if ia == ib {
		oneWay := m.cfg.IntraASOneWay + conds[ia].ExtraOneWay
		return pathStats{rtt: 2 * oneWay, loss: conds[ia].LossRate, hops: 0, ok: true}
	}
	dst, src := min(ia, ib), max(ia, ib)
	t := m.router.TableByIndex(dst)
	var d time.Duration
	success := 1.0
	hops := 0
	for i := src; i != dst; hops++ {
		e, next, ok := t.Step(i)
		if !ok {
			return pathStats{}
		}
		d += m.linkDelay[e]
		success *= 1 - m.cfg.BaseLossRate
		d += conds[i].ExtraOneWay
		success *= 1 - conds[i].LossRate
		i = next
	}
	d += conds[dst].ExtraOneWay
	success *= 1 - conds[dst].LossRate
	d += m.cfg.IntraASOneWay * time.Duration(hops+1)
	return pathStats{rtt: 2 * d, loss: 1 - success, hops: hops, ok: true}
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

// clusterStatsUncached is clusterStats without the pair cache: one walk,
// nothing read or stored. A close-set probe round asks for each
// owner→target pair once per build, so a fill there bought nothing and
// cost a miss lookup, an insert and a shard write lock (DESIGN.md §9).
func (m *Model) clusterStatsUncached(c1, c2 cluster.ClusterID) PairStat {
	if c1 == c2 {
		return PairStat{RTT: 2 * m.cfg.IntraASOneWay, OK: true}
	}
	st := m.indexPath(m.clusterAS[c1], m.clusterAS[c2])
	return PairStat{RTT: st.rtt, Loss: st.loss, OK: st.ok}
}

// ClusterRTT returns the ground-truth delegate-to-delegate RTT between two
// clusters.
func (m *Model) ClusterRTT(c1, c2 cluster.ClusterID) (time.Duration, bool) {
	st := m.clusterStats(c1, c2)
	return st.RTT, st.OK
}
