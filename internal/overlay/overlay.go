// Package overlay computes end-to-end properties of direct and relayed
// voice paths: RTT, loss, and MOS of one-hop and two-hop peer-relay routes,
// plus the offline-optimal relay search (the paper's OPT method).
//
// Relay delay follows Section 3.2: measured forwarding delay averaged
// ~12 ms; the paper "conservatively use[s] 20 ms as the packet relay delay,
// and 40 ms as the round-trip relay delay".
package overlay

import (
	"sort"
	"time"

	"asap/internal/cluster"
	"asap/internal/netmodel"
)

// Relay delay constants (Section 3.2).
const (
	// RelayOneWay is the one-way forwarding delay charged per relay node.
	RelayOneWay = 20 * time.Millisecond
	// RelayRTT is the round-trip relay delay charged per relay node.
	RelayRTT = 40 * time.Millisecond
)

// Kind classifies a voice path.
type Kind int8

// Path kinds.
const (
	// KindDirect is plain IP routing between the endpoints.
	KindDirect Kind = iota + 1
	// KindOneHop relays through one intermediate peer.
	KindOneHop
	// KindTwoHop relays through two intermediate peers.
	KindTwoHop
)

// String returns a short label.
func (k Kind) String() string {
	switch k {
	case KindDirect:
		return "direct"
	case KindOneHop:
		return "1-hop"
	case KindTwoHop:
		return "2-hop"
	default:
		return "unknown"
	}
}

// Path is one candidate voice path between two endpoints.
type Path struct {
	Kind Kind
	// Relays holds the intermediate relay hosts, empty for direct paths.
	Relays []cluster.HostID
	RTT    time.Duration
	Loss   float64
}

// MOS scores the path under the paper's fixed evaluation codec
// (G.729A+VAD) at the given loss rate override; pass a negative loss to
// use the path's own loss.
func (p Path) MOS(lossOverride float64) float64 {
	loss := p.Loss
	if lossOverride >= 0 {
		loss = lossOverride
	}
	return netmodel.MOSFromRTT(p.RTT, loss, netmodel.CodecG729A)
}

// Quality reports whether the path meets the RTT requirement for
// satisfactory VoIP (RTT < 300 ms, Section 7.1).
func (p Path) Quality() bool { return p.RTT < netmodel.QualityRTT }

// Engine computes path properties against the ground-truth model.
type Engine struct {
	m *netmodel.Model
}

// NewEngine returns an Engine over m.
func NewEngine(m *netmodel.Model) *Engine { return &Engine{m: m} }

// Direct returns the direct IP path between two hosts.
func (e *Engine) Direct(a, b cluster.HostID) (Path, bool) {
	st := e.m.HostStats(a, b)
	if !st.OK {
		return Path{}, false
	}
	return Path{Kind: KindDirect, RTT: st.RTT, Loss: st.Loss}, true
}

// OneHop returns the relayed path a -> r -> b.
func (e *Engine) OneHop(a, r, b cluster.HostID) (Path, bool) {
	p, _, _, ok := e.oneHop(a, r, b)
	return p, ok
}

// oneHop is OneHop that also hands back the two leg RTTs, which Optimal
// ranks its two-hop beam by.
func (e *Engine) oneHop(a, r, b cluster.HostID) (p Path, ra, rb time.Duration, ok bool) {
	l1, l2 := e.m.HostStats(a, r), e.m.HostStats(r, b)
	if !l1.OK || !l2.OK {
		return Path{}, 0, 0, false
	}
	return Path{
		Kind:   KindOneHop,
		Relays: []cluster.HostID{r},
		RTT:    l1.RTT + l2.RTT + RelayRTT,
		Loss:   combineLoss(l1.Loss, l2.Loss),
	}, l1.RTT, l2.RTT, true
}

// TwoHop returns the relayed path a -> r1 -> r2 -> b.
func (e *Engine) TwoHop(a, r1, r2, b cluster.HostID) (Path, bool) {
	l1, l2, l3 := e.m.HostStats(a, r1), e.m.HostStats(r1, r2), e.m.HostStats(r2, b)
	if !l1.OK || !l2.OK || !l3.OK {
		return Path{}, false
	}
	return Path{
		Kind:   KindTwoHop,
		Relays: []cluster.HostID{r1, r2},
		RTT:    l1.RTT + l2.RTT + l3.RTT + 2*RelayRTT,
		Loss:   combineLoss(combineLoss(l1.Loss, l2.Loss), l3.Loss),
	}, true
}

// OneHopBatch fills out[i] with the relayed path a -> relays[i] -> b.
// out[i].Kind is zero where either leg is disconnected, the same
// condition under which OneHop reports ok == false. out must be at least
// len(relays) long.
func (e *Engine) OneHopBatch(a cluster.HostID, relays []cluster.HostID, b cluster.HostID, out []Path) {
	for i, r := range relays {
		out[i], _ = e.OneHop(a, r, b)
	}
}

func combineLoss(a, b float64) float64 {
	return 1 - (1-a)*(1-b)
}

// twoHopBeam is the number of best clusters kept per side for the
// two-hop pairing phase. The full quadratic sweep is intractable at
// paper scale; a generous beam is within measurement noise of exact
// (the best two-hop relays are always near-best one-hop endpoints).
const twoHopBeam = 64

// Optimal exhaustively searches relay clusters for the lowest-RTT path
// between a and b (the paper's OPT method: "always chooses relay nodes
// that give the shortest overlay routing latency ... an offline method
// with all latency data on hand through one-hop and two-hop relay paths
// iterations"). Relays are evaluated at cluster-delegate granularity, the
// same granularity the paper measured. The endpoints' own clusters are
// excluded as relays.
func (e *Engine) Optimal(a, b cluster.HostID) (Path, bool) {
	pop := e.m.Population()
	ha, hb := pop.Host(a), pop.Host(b)

	best, haveBest := e.Direct(a, b)

	type side struct {
		c   cluster.ClusterID
		rtt time.Duration
	}
	fromA := make([]side, 0, pop.NumClusters())
	toB := make([]side, 0, pop.NumClusters())

	for _, c := range pop.Clusters() {
		if c.ID == ha.Cluster || c.ID == hb.Cluster {
			continue
		}
		r := c.Delegate
		p, ra, rb, ok := e.oneHop(a, r, b)
		if !ok {
			continue
		}
		if !haveBest || p.RTT < best.RTT {
			best, haveBest = p, true
		}
		fromA = append(fromA, side{c.ID, ra})
		toB = append(toB, side{c.ID, rb})
	}

	sort.Slice(fromA, func(i, j int) bool { return fromA[i].rtt < fromA[j].rtt })
	sort.Slice(toB, func(i, j int) bool { return toB[i].rtt < toB[j].rtt })
	if len(fromA) > twoHopBeam {
		fromA = fromA[:twoHopBeam]
	}
	if len(toB) > twoHopBeam {
		toB = toB[:twoHopBeam]
	}
	for _, s1 := range fromA {
		for _, s2 := range toB {
			if s1.c == s2.c {
				continue
			}
			r1 := pop.Cluster(s1.c).Delegate
			r2 := pop.Cluster(s2.c).Delegate
			p, ok := e.TwoHop(a, r1, r2, b)
			if !ok {
				continue
			}
			if !haveBest || p.RTT < best.RTT {
				best, haveBest = p, true
			}
		}
	}
	return best, haveBest
}

// OptimalOneHop searches only one-hop relays, returning the best relayed
// path even when the direct path is faster (Section 3.3 compares the two).
func (e *Engine) OptimalOneHop(a, b cluster.HostID) (Path, bool) {
	pop := e.m.Population()
	ha, hb := pop.Host(a), pop.Host(b)
	var best Path
	have := false
	for _, c := range pop.Clusters() {
		if c.ID == ha.Cluster || c.ID == hb.Cluster {
			continue
		}
		p, ok := e.OneHop(a, c.Delegate, b)
		if !ok {
			continue
		}
		if !have || p.RTT < best.RTT {
			best, have = p, true
		}
	}
	return best, have
}
