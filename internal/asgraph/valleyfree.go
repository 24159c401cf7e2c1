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
// It is VFWalk.Traverse on a zero walk with a visitor that always
// expands: the queue runs in non-decreasing hop order, so the first visit
// of an AS carries its minimum hop count.
func (g *Graph) ValleyFreeBFS(src ASN, maxHops int) VFReach {
	reach := VFReach{Hops: make(map[ASN]int)}
	var w VFWalk
	w.Traverse(g, src, maxHops, func(ai int32, hops int) bool {
		reach.Hops[g.asns[ai]] = hops
		return true
	})
	return reach
}

// Per-AS walk state: one bit per phase the AS has been reached in, and
// the visitor's expand-or-prune verdict once it has been asked.
const (
	seenExpand uint8 = 1 << (numPhases + iota)
	seenPruned
)

// vfState is one queued (AS, phase) state.
type vfState struct {
	node int32
	p    vfPhase
}

// VFWalk is a bounded valley-free BFS whose state outlives one search: a
// caller that walks many times (one close-set build per cluster) keeps a
// VFWalk and pays for its arrays once. The zero value is ready to use. A
// VFWalk is not safe for concurrent use; give each goroutine its own.
type VFWalk struct {
	seen  []uint8 // per dense AS index: phase bits | seenExpand | seenPruned
	queue []vfState
}

// Traverse runs the bounded valley-free BFS from src over g, calling
// visit with the dense index (Graph.ByIndex) of each AS the first time it
// is reached, the source included at 0 hops. If visit returns false, the
// search does not expand through that AS — the "stop path expansion"
// pruning of construct-close-cluster-set() (Fig. 9), where ASes whose
// surrogates already exceed the latency or loss thresholds are not
// explored further. An unknown src or a negative maxHops visits nothing.
//
// The search runs over (AS, phase) states so that, for example, an AS first
// reached in the descending phase can still be passed through later by a
// shorter climbing path. Pruning is remembered per AS: a pruned AS reached
// again later through another phase is still not expanded.
func (w *VFWalk) Traverse(g *Graph, src ASN, maxHops int, visit func(ai int32, hops int) bool) {
	srcIdx, ok := g.idx[src]
	if !ok || maxHops < 0 {
		return
	}
	if n := len(g.asns); len(w.seen) != n {
		// A walk reaches each AS in up to three phases; one state per AS
		// covers most walks without regrowing the queue.
		w.seen = make([]uint8, n)
		w.queue = make([]vfState, 0, n)
	} else {
		clear(w.seen)
		w.queue = w.queue[:0]
	}

	decide := func(ni int32, hops int) bool {
		switch s := w.seen[ni]; {
		case s&seenExpand != 0:
			return true
		case s&seenPruned != 0:
			return false
		}
		if visit(ni, hops) {
			w.seen[ni] |= seenExpand
			return true
		}
		w.seen[ni] |= seenPruned
		return false
	}

	w.seen[srcIdx] |= 1 << phaseUp
	if !decide(srcIdx, 0) {
		return
	}
	w.queue = append(w.queue, vfState{srcIdx, phaseUp})

	// The queue holds one hop level after another: every state before
	// levelEnd is hops away from src, and the states after it one more.
	hops, levelEnd := 0, len(w.queue)
	for head := 0; head < len(w.queue); head++ {
		if head == levelEnd {
			hops, levelEnd = hops+1, len(w.queue)
		}
		if hops >= maxHops {
			return
		}
		cur := w.queue[head]
		for k := g.off[cur.node]; k < g.off[cur.node+1]; k++ {
			np, allowed := vfNext(cur.p, g.edges[k].Rel)
			if !allowed {
				continue
			}
			ni := g.nbr[k]
			if w.seen[ni]&(1<<np) != 0 {
				continue
			}
			w.seen[ni] |= 1 << np
			if !decide(ni, hops+1) {
				continue // visited but pruned: do not expand
			}
			w.queue = append(w.queue, vfState{ni, np})
		}
	}
}
