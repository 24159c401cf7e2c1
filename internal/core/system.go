package core

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"asap/internal/asgraph"
	"asap/internal/cluster"
	"asap/internal/netmodel"
	"asap/internal/sim"
)

// CloseSet is a cluster's close cluster set: every cluster reachable from
// the owner's surrogate by a valley-free AS path of at most K hops whose
// measured surrogate-to-surrogate RTT and loss are under the thresholds.
// The measured RTT is retained — select-close-relay estimates relay-path
// latency by summing close-set entries, which is why one-hop selection
// needs no probing at call time.
type CloseSet struct {
	Owner cluster.ClusterID
	// Clusters holds the close clusters, sorted by cluster (mergeClose).
	Clusters []CloseCluster
	// BuildMessages is the probe-message cost paid to construct the set.
	BuildMessages int64
}

// CloseCluster is one close-set entry: a cluster and the RTT to its surrogate.
type CloseCluster struct {
	Cluster cluster.ClusterID
	RTT     time.Duration
}

// Size returns the number of close clusters.
func (s *CloseSet) Size() int { return len(s.Clusters) }

// System is the algorithmic view of a running ASAP deployment: surrogate
// assignments per cluster, cached close cluster sets, and the
// select-close-relay entry point. It plays the role of the bootstrap's
// global knowledge plus every surrogate's local state, with message costs
// accounted as the distributed protocol would pay them.
//
// System is safe for concurrent use: state reads take a read lock, and
// close-set construction is coalesced singleflight-style with probe noise
// drawn from a per-cluster sub-seeded stream, so whichever goroutine builds
// a cluster's set arrives at the identical result.
type System struct {
	pop    *cluster.Population
	model  *netmodel.Model
	prober *netmodel.Prober
	params Params
	seed   int64

	mu         sync.RWMutex
	surrogates map[cluster.ClusterID]cluster.HostID
	failed     map[cluster.HostID]bool
	closeSets  map[cluster.ClusterID]*CloseSet
	inflight   map[cluster.ClusterID]*closeSetCall
	buildMsgs  int64 // cumulative close-set construction cost

	// scratchMu guards scratch, a stack of idle scratches. A close-set
	// build pops one once it has registered and pushes it back before it
	// stores the set; a selection holds one for its whole run, and the
	// builds nested in it pop their own. The stack grows to the most
	// builds and selections that ever ran at once. A sync.Pool would be
	// emptied by every garbage collection.
	scratchMu sync.Mutex
	scratch   []*scratch
}

// scratch is what one close-set build or one selection needs and does
// not return. A build uses the walk, the probe round's slices, the
// probe-noise stream and its prober, and the entries found so far as an
// RTT table and a membership bitset, both indexed by cluster. A
// selection uses the staged candidates, the radix sort's second buffers
// and S2 as a leg table indexed by cluster. Each half is made on its
// first use.
type scratch struct {
	walk    asgraph.VFWalk
	targets []cluster.ClusterID
	probes  []netmodel.ClusterProbe
	rng     *sim.RNG
	ctr     *sim.Counters // cumulative over the scratch's builds
	probe   *netmodel.Prober
	rtt     []time.Duration
	member  []uint64

	oneHop, oneHopBuf []OneHopCandidate
	twoHop, twoHopBuf []TwoHopCandidate
	leg               []time.Duration // noLeg outside a two-hop expansion
}

func (s *System) popScratch() *scratch {
	s.scratchMu.Lock()
	defer s.scratchMu.Unlock()
	n := len(s.scratch)
	if n == 0 {
		return new(scratch)
	}
	sc := s.scratch[n-1]
	s.scratch = s.scratch[:n-1]
	return sc
}

func (s *System) pushScratch(sc *scratch) {
	s.scratchMu.Lock()
	s.scratch = append(s.scratch, sc)
	s.scratchMu.Unlock()
}

// closeSetCall is a singleflight handle for one in-progress close-set
// construction. Waiters block on done; cs/err are written before done is
// closed.
type closeSetCall struct {
	done chan struct{}
	cs   *CloseSet
	err  error
}

// NewSystem assembles an ASAP system over the world. The prober is the
// measurement interface surrogates use while constructing close sets.
// Close-set probe noise derives from seed 1; use NewSystemSeeded to tie it
// to an experiment seed.
func NewSystem(model *netmodel.Model, prober *netmodel.Prober, params Params) (*System, error) {
	return NewSystemSeeded(model, prober, params, 1)
}

// NewSystemSeeded is NewSystem with an explicit root seed for close-set
// probe noise. Each cluster's construction draws from a private stream
// sub-seeded by (seed, cluster ID), so sets are identical no matter which
// goroutine builds them or in what order.
func NewSystemSeeded(model *netmodel.Model, prober *netmodel.Prober, params Params, seed int64) (*System, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if model.Population() == nil {
		return nil, fmt.Errorf("core: model has no population")
	}
	if prober == nil {
		return nil, fmt.Errorf("core: prober is required")
	}
	s := &System{
		pop:        model.Population(),
		model:      model,
		prober:     prober,
		params:     params,
		seed:       seed,
		surrogates: make(map[cluster.ClusterID]cluster.HostID),
		failed:     make(map[cluster.HostID]bool),
		closeSets:  make(map[cluster.ClusterID]*CloseSet),
		inflight:   make(map[cluster.ClusterID]*closeSetCall),
	}
	// Initial surrogate election: every host publishes nodal information;
	// the most capable host of each cluster becomes surrogate ("If there
	// are better end hosts, recommend the better end hosts to be new
	// surrogates"). Hosts alone in their clusters serve by default
	// (Section 6.1, end-host duty 2).
	for _, c := range s.pop.Clusters() {
		s.surrogates[c.ID] = s.electLocked(c.ID)
	}
	return s, nil
}

// Params returns the system's protocol parameters.
func (s *System) Params() Params { return s.params }

// Population returns the underlying population.
func (s *System) Population() *cluster.Population { return s.pop }

// Model returns the ground-truth model the system was built over.
func (s *System) Model() *netmodel.Model { return s.model }

// Prober returns the system's measurement prober. Callers running parallel
// selections derive per-session probers from it with WithRNG.
func (s *System) Prober() *netmodel.Prober { return s.prober }

// electLocked picks the live host with the best nodal score in a cluster.
// Returns -1 when every member has failed.
func (s *System) electLocked(cid cluster.ClusterID) cluster.HostID {
	c := s.pop.Cluster(cid)
	best := cluster.HostID(-1)
	bestScore := -1.0
	for _, id := range c.Hosts {
		if s.failed[id] {
			continue
		}
		if sc := s.pop.Host(id).NodalScore(); sc > bestScore {
			best, bestScore = id, sc
		}
	}
	return best
}

// Surrogate returns the current surrogate of a cluster, or false when the
// whole cluster is down.
func (s *System) Surrogate(cid cluster.ClusterID) (cluster.HostID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.surrogates[cid]
	return id, ok && id >= 0
}

// FailHost marks a host offline. If it was its cluster's surrogate, a new
// surrogate is elected (bootstrap duty 4) and the cluster's close set is
// dropped: the replacement rebuilds it on demand.
func (s *System) FailHost(id cluster.HostID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed[id] = true
	cid := s.pop.Host(id).Cluster
	if s.surrogates[cid] == id {
		s.surrogates[cid] = s.electLocked(cid)
		delete(s.closeSets, cid)
	}
}

// ReviveHost brings a host back online and lets it publish nodal
// information; it may displace the current surrogate if more capable.
func (s *System) ReviveHost(id cluster.HostID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.failed, id)
	cid := s.pop.Host(id).Cluster
	cur := s.surrogates[cid]
	if cur < 0 {
		s.surrogates[cid] = id
		delete(s.closeSets, cid)
		return
	}
	if s.pop.Host(id).NodalScore() > s.pop.Host(cur).NodalScore() {
		s.surrogates[cid] = id
		delete(s.closeSets, cid)
	}
}

// Alive reports whether a host is online.
func (s *System) Alive(id cluster.HostID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.failed[id]
}

// BuildMessages returns the cumulative probe-message cost of all close
// cluster set constructions so far — the system's amortized background
// overhead, reported separately from per-session overhead as in
// Section 7.3.
func (s *System) BuildMessages() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.buildMsgs
}

// CloseSet returns the close cluster set of cid, constructing and caching
// it on first use (in the deployed system the surrogate maintains it
// continuously; the cache models that steady state). It returns an error
// when the cluster has no live surrogate.
func (s *System) CloseSet(cid cluster.ClusterID) (*CloseSet, error) {
	s.mu.RLock()
	cs, ok := s.closeSets[cid]
	s.mu.RUnlock()
	if ok {
		return cs, nil
	}

	s.mu.Lock()
	if cs, ok := s.closeSets[cid]; ok {
		s.mu.Unlock()
		return cs, nil
	}
	if c, ok := s.inflight[cid]; ok {
		// Another goroutine is constructing this set; wait for its result.
		s.mu.Unlock()
		<-c.done
		return c.cs, c.err
	}
	sur, ok := s.surrogates[cid]
	if !ok || sur < 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: cluster %d has no live surrogate", cid)
	}
	c := &closeSetCall{done: make(chan struct{})}
	s.inflight[cid] = c
	s.mu.Unlock()

	// Construct outside the lock: the valley-free BFS plus probing is the
	// expensive part, and other clusters' lookups must not stall behind it.
	sc := s.popScratch()
	cs = s.constructCloseClusterSet(cid, sc)
	s.pushScratch(sc)

	s.mu.Lock()
	delete(s.inflight, cid)
	s.closeSets[cid] = cs
	s.buildMsgs += cs.BuildMessages
	s.mu.Unlock()
	c.cs = cs
	close(c.done)
	return cs, nil
}

// constructCloseClusterSet implements Fig. 9: a breadth-first search from
// the surrogate's AS node under valley-free constraints, probing the
// surrogate of every cluster in each reached AS and pruning expansion
// through ASes whose clusters all miss the latency/loss thresholds.
// ASes that hold no cluster at all are passed through freely: there is
// nothing to measure there and transit ASes mostly host no peers. A
// cluster whose surrogate is down is still probed like any other, from
// ground truth. The build runs on sc and allocates only the set it
// returns.
func (s *System) constructCloseClusterSet(cid cluster.ClusterID, sc *scratch) *CloseSet {
	// Probe noise comes from a stream sub-seeded by (system seed, cluster):
	// the set's contents are a pure function of the cluster, independent of
	// which goroutine constructs it or what other probes ran before.
	seed := sim.SubSeed(s.seed, uint64(cid))
	if sc.probe == nil {
		sc.rng = sim.NewRNG(seed)
		sc.ctr = sim.NewCounters()
		sc.probe = s.prober.WithRNG(sc.rng).WithCounters(sc.ctr)
		n := s.pop.NumClusters()
		sc.rtt = make([]time.Duration, n)
		sc.member = make([]uint64, (n+63)/64)
	} else {
		sc.rng.Reseed(seed)
	}
	msgs0 := sc.ctr.Total()

	// Per-AS probe rounds travel batched: the AS's candidate clusters go
	// through one ProbeClusterSet round (in the deployed protocol, one
	// MsgProbeBatch round trip) instead of two scalar probes per
	// cluster. ProbeClusterSet consumes the RNG stream in exactly the
	// scalar order, so sets are bit-identical per seed. A close entry
	// lands in the RTT table and the bitset; the walk visits each AS once
	// and every cluster sits in one AS, so each bit is set at most once.
	size := 0
	sc.walk.Traverse(s.model.Graph(), s.pop.Cluster(cid).AS, s.params.K, func(ai int32, hops int) bool {
		clusters := s.model.ClustersAtIndex(ai)
		if len(clusters) == 0 {
			return true // nothing to probe; keep exploring through it
		}
		anyClose := false
		sc.targets = sc.targets[:0]
		for _, rc := range clusters {
			if rc == cid {
				anyClose = true // own AS is trivially close
				continue
			}
			sc.targets = append(sc.targets, rc)
		}
		if len(sc.targets) == 0 {
			return anyClose
		}
		if cap(sc.probes) < len(sc.targets) {
			sc.probes = make([]netmodel.ClusterProbe, len(sc.targets))
		}
		sc.probes = sc.probes[:len(sc.targets)]
		sc.probe.ProbeClusterSet(cid, sc.targets, s.params.LatT, sc.probes)
		for i, rc := range sc.targets {
			pr := sc.probes[i]
			if !pr.RTTOK || pr.RTT >= s.params.LatT {
				continue
			}
			if !pr.LossOK || pr.Loss >= s.params.LossT {
				continue
			}
			sc.rtt[rc] = pr.RTT
			sc.member[rc/64] |= 1 << (rc % 64)
			size++
			anyClose = true
		}
		// Prune expansion when every probed cluster in this AS missed the
		// thresholds (Fig. 9's "stop path expansion").
		return anyClose
	})

	cs := &CloseSet{Owner: cid, BuildMessages: sc.ctr.Total() - msgs0}
	if size > 0 {
		// One sweep of the bitset yields the entries in cluster order and
		// leaves it clear for the next build.
		cs.Clusters = make([]CloseCluster, 0, size)
		for w, word := range sc.member {
			for ; word != 0; word &= word - 1 {
				rc := cluster.ClusterID(w*64 + bits.TrailingZeros64(word))
				cs.Clusters = append(cs.Clusters, CloseCluster{Cluster: rc, RTT: sc.rtt[rc]})
			}
			sc.member[w] = 0
		}
	}
	return cs
}
