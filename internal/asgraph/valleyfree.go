package asgraph

// Valley-free path exploration.
//
// An AS-level path is valley-free when it consists of zero or more
// customer-to-provider (uphill) edges, at most one peer-peer edge, and zero
// or more provider-to-customer (downhill) edges, in that order [Gao 2001].
// Sibling edges may appear anywhere without changing the phase.
//
// ASAP's construct-close-cluster-set() does a breadth-first search from a
// surrogate's AS under exactly this constraint, bounded at k AS hops
// (k = 4 in the paper: >90% of sub-300ms paths have <= 4 AS hops).

// phase of a partially built valley-free path.
type vfPhase int8

const (
	phaseUp   vfPhase = iota // only uphill (c2p) and sibling edges so far
	phasePeer                // crossed the single allowed peer edge
	phaseDown                // started descending; only downhill allowed
	numPhases = 3
)

// vfNext returns the phase after traversing an edge with relationship rel
// from a path currently in phase p, and whether the traversal is allowed.
func vfNext(p vfPhase, rel Relationship) (vfPhase, bool) {
	switch rel {
	case RelS2S:
		// Sibling edges are organizational aliases; they never change the
		// phase and are always allowed.
		return p, true
	case RelC2P:
		if p == phaseUp {
			return phaseUp, true
		}
		return 0, false
	case RelP2P:
		if p == phaseUp {
			return phasePeer, true
		}
		return 0, false
	case RelP2C:
		return phaseDown, true
	default:
		return 0, false
	}
}

// VFReach holds the result of a bounded valley-free BFS: for each reached
// AS, the minimum number of AS hops of any valley-free path from the
// source.
type VFReach struct {
	// Hops maps each reachable ASN (source included, at 0 hops) to its
	// minimum valley-free hop count.
	Hops map[ASN]int
}

// ValleyFreeBFS explores all ASes reachable from src by a valley-free path
// of at most maxHops AS hops. It returns the minimum hop count per reached
// AS. An unknown src yields an empty result.
//
// It is ValleyFreeTraverse with a visitor that always expands: the queue
// runs in non-decreasing hop order, so the first visit of an AS carries
// its minimum hop count.
func (g *Graph) ValleyFreeBFS(src ASN, maxHops int) VFReach {
	reach := VFReach{Hops: make(map[ASN]int)}
	g.ValleyFreeTraverse(src, maxHops, func(asn ASN, hops int) bool {
		reach.Hops[asn] = hops
		return true
	})
	return reach
}

// ValleyFreeTraverse runs the bounded valley-free BFS calling visit the
// first time each AS is reached (the source included, at 0 hops). If visit
// returns false, the search does not expand through that AS — the "stop
// path expansion" pruning of construct-close-cluster-set() (Fig. 9),
// where ASes whose surrogates already exceed the latency or loss
// thresholds are not explored further.
//
// The search runs over (AS, phase) states so that, for example, an AS first
// reached in the descending phase can still be passed through later by a
// shorter climbing path. Pruning is remembered per AS: a pruned AS reached
// again later through another phase is still not expanded.
func (g *Graph) ValleyFreeTraverse(src ASN, maxHops int, visit func(asn ASN, hops int) bool) {
	srcIdx, ok := g.idx[src]
	if !ok || maxHops < 0 {
		return
	}
	n := len(g.asns)
	const unvisited = int32(-1)
	dist := make([]int32, n*numPhases)
	for i := range dist {
		dist[i] = unvisited
	}
	state := func(node int32, p vfPhase) int32 { return node*numPhases + int32(p) }

	// expand[i]: 0 unknown, 1 expand, 2 pruned.
	expand := make([]uint8, n)
	decide := func(ni int32, hops int) bool {
		switch expand[ni] {
		case 1:
			return true
		case 2:
			return false
		}
		if visit(g.asns[ni], hops) {
			expand[ni] = 1
			return true
		}
		expand[ni] = 2
		return false
	}

	type qent struct {
		node int32
		p    vfPhase
	}
	queue := make([]qent, 0, 64)
	dist[state(srcIdx, phaseUp)] = 0
	if !decide(srcIdx, 0) {
		return
	}
	queue = append(queue, qent{srcIdx, phaseUp})

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := dist[state(cur.node, cur.p)]
		if int(d) >= maxHops {
			continue
		}
		for k := g.off[cur.node]; k < g.off[cur.node+1]; k++ {
			np, allowed := vfNext(cur.p, g.edges[k].Rel)
			if !allowed {
				continue
			}
			ni := g.nbr[k]
			s := state(ni, np)
			if dist[s] != unvisited {
				continue
			}
			dist[s] = d + 1
			if !decide(ni, int(d+1)) {
				continue // visited but pruned: do not expand
			}
			queue = append(queue, qent{ni, np})
		}
	}
}

// IsValleyFree reports whether the given AS path (a sequence of adjacent
// ASes) is valley-free in g. Paths with unknown edges are not valley-free.
// A path of fewer than two ASes is trivially valley-free.
func (g *Graph) IsValleyFree(path []ASN) bool {
	p := phaseUp
	for i := 0; i+1 < len(path); i++ {
		rel, ok := g.Rel(path[i], path[i+1])
		if !ok {
			return false
		}
		np, allowed := vfNext(p, rel)
		if !allowed {
			return false
		}
		p = np
	}
	return true
}
