package asgraph

import (
	"sync"
	"sync/atomic"
)

// BGP-style policy routing.
//
// Direct IP paths on the Internet follow commercial policy, not latency:
// each AS prefers routes learned from customers over routes learned from
// peers over routes learned from providers, and only then prefers shorter
// AS paths [Gao-Rexford]. This file computes, for a destination AS, the
// policy-preferred route from every other AS, using the standard
// three-stage construction:
//
//  1. customer routes: strictly downhill paths to the destination,
//     found by BFS from the destination along provider edges;
//  2. peer routes: one peer edge followed by a customer route;
//  3. provider routes: a route learned from a provider, which may itself
//     be any class; resolved by a Dijkstra pass in preference order.
//
// The result is a per-destination routing table of next hops, from which
// full AS paths are reconstructed. Tables are cached because experiments
// reuse a destination for many sessions.

// routeClass orders route preference: lower is more preferred.
type routeClass uint8

const (
	classCustomer routeClass = iota
	classPeer
	classProvider
	classNone routeClass = 0xff
)

// RouteTable holds, for one destination AS, the policy route from every
// source AS that can reach it, as next hops: a route's length and class
// matter only while the table is built, and its readers walk via.
type RouteTable struct {
	g      *Graph
	dstIdx int32
	// via[i] is the position, within g.asns[i]'s run of half-edges
	// off[i]:off[i+1], of the half-edge its route leaves by (its head is
	// the next AS toward dst), or noRoute when unreachable (or i is dst).
	via []uint16
}

// noRoute is a next hop that names no half-edge: the AS has no route, or
// it is the destination.
const noRoute = 0xFFFF

// hopsFrom returns the policy AS-path length from the AS at dense index
// i to the destination, and whether a route exists.
func (t *RouteTable) hopsFrom(i int32) (int, bool) {
	h := 0
	for ; i != t.dstIdx; h++ {
		_, next, ok := t.Step(i)
		if !ok {
			return 0, false
		}
		i = next
	}
	return h, true
}

// Step is one hop of the route from the AS at dense index i: the
// half-edge it leaves by (see Graph) and the dense index of the next AS.
// ok is false at the destination and where no route exists. Walking Step
// from a source to the destination visits Path's ASes without building it.
func (t *RouteTable) Step(i int32) (edge, next int32, ok bool) {
	p := t.via[i]
	if p == noRoute {
		return 0, 0, false
	}
	e := t.g.off[i] + int32(p)
	return e, t.g.nbr[e], true
}

// Path returns the full policy AS path from src to the destination,
// inclusive of both endpoints, and whether a route exists. It walks the
// route twice: once for its length, so the path is one allocation.
func (t *RouteTable) Path(src ASN) ([]ASN, bool) {
	i, ok := t.g.idx[src]
	if !ok {
		return nil, false
	}
	h, ok := t.hopsFrom(i)
	if !ok {
		return nil, false
	}
	path := make([]ASN, 0, h+1)
	path = append(path, t.g.asns[i])
	for i != t.dstIdx {
		_, i, _ = t.Step(i)
		path = append(path, t.g.asns[i])
	}
	return path, true
}

// The stages of a table build, in the order it runs them. Each crosses
// its own kind of link out of an AS that has a route (see stageCrosses),
// and the graph lays those links out per AS and stage (stageLinks).
const (
	stageUp   = iota // customer routes: climb c2p and s2s links
	stagePeer        // peer routes: cross p2p links
	stageDown        // provider routes: descend p2c and s2s links
	numStages
)

// stageCrosses reports whether stage s crosses a link of relationship
// rel, seen from the AS whose route is advertised over it.
func stageCrosses(s int, rel Relationship) bool {
	switch s {
	case stageUp:
		return rel == RelC2P || rel == RelS2S
	case stagePeer:
		return rel == RelP2P
	default:
		return rel == RelP2C || rel == RelS2S
	}
}

// stageLink is one link a build stage crosses: the neighbour's dense
// index, and back, the position in the neighbour's adjacency of the
// half-edge that returns along the link — the neighbour's next hop when
// it learns its route over this link.
type stageLink struct {
	nbr  int32
	back uint16
}

// stageLinks returns the links stage s crosses out of the AS at dense
// index i, in adjacency order.
func (g *Graph) stageLinks(i int32, s int) []stageLink {
	o := numStages*int(i) + s
	return g.links[g.linkOff[o]:g.linkOff[o+1]]
}

// routeHeap is the provider-route Dijkstra's binary min-heap. An entry is
// hops<<32 | node, ordered on hops alone. Its init, push and pop are
// container/heap's Init, Push and Pop with the interface calls inlined
// and each sift moving a hole rather than swapping: the same comparisons
// in the same order, so equal-hop entries leave in the same order and
// next-hop ties resolve as they always have.
type routeHeap []uint64

func routeEntry(node, hops int32) uint64 { return uint64(hops)<<32 | uint64(uint32(node)) }

func (h routeHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *routeHeap) push(x uint64) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

func (h *routeHeap) pop() uint64 {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q.down(0, n)
	*h = q[:n]
	return top
}

// up sifts h[j] toward the root while it has fewer hops than its parent.
func (h routeHeap) up(j int) {
	x := h[j]
	for j > 0 {
		i := (j - 1) / 2 // parent
		if x>>32 >= h[i]>>32 {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
}

// down sifts h[i] toward the leaves of h[:n] while a child has fewer
// hops, taking the right child only when it has fewer than the left.
func (h routeHeap) down(i, n int) {
	x := h[i]
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2]>>32 < h[j]>>32 {
			j = j2 // right child
		}
		if h[j]>>32 >= x>>32 {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}

// routeScratch is what one table build works in and does not return:
// each AS's route class and customer or peer route length, the BFS queue
// and the heap. Its arrays are sized to the graph, and a build resets
// what it reads before reading it.
type routeScratch struct {
	hops  []int32      // hops[i] is g.asns[i]'s route length, once it has a customer or peer route
	class []routeClass // class[i] is g.asns[i]'s route class
	queue []int32
	pq    routeHeap
}

// maxRouteScratches bounds the graph's idle build scratches: one per
// build running at once, up to a handful; a burst beyond that leaves its
// extras to the collector.
const maxRouteScratches = 8

func (g *Graph) popRouteScratch() *routeScratch {
	g.scratchMu.Lock()
	sc, ok := g.scratch.Get()
	g.scratchMu.Unlock()
	if ok {
		return sc
	}
	n := len(g.asns)
	return &routeScratch{
		hops:  make([]int32, n),
		class: make([]routeClass, n),
		queue: make([]int32, 0, n),
		pq:    make(routeHeap, 0, n),
	}
}

func (g *Graph) pushRouteScratch(sc *routeScratch) {
	g.scratchMu.Lock()
	g.scratch.Put(sc, maxRouteScratches)
	g.scratchMu.Unlock()
}

// BuildRouteTable computes the policy routing table toward dst. It returns
// nil if dst is not in the graph. It allocates only what it returns, the
// table and its next hops: the build's working arrays come from a scratch
// the graph keeps for reuse, allocated on the first build (and on one
// that overlaps every kept scratch) and sized to the graph. The BFS queue
// and the heap each hold NumNodes entries, enough because every AS enters
// each at most once.
func (g *Graph) BuildRouteTable(dst ASN) *RouteTable {
	dstIdx, ok := g.idx[dst]
	if !ok {
		return nil
	}
	sc := g.popRouteScratch()
	t := g.buildRouteTable(dstIdx, sc)
	g.pushRouteScratch(sc)
	return t
}

// buildRouteTable builds the table toward the AS at dense index dstIdx,
// working in sc. Each route's class stays in sc until its next build.
func (g *Graph) buildRouteTable(dstIdx int32, sc *routeScratch) *RouteTable {
	n := len(g.asns)
	t := &RouteTable{
		g:      g,
		dstIdx: dstIdx,
		via:    make([]uint16, n),
	}
	via, hops, class := t.via, sc.hops, sc.class
	for i := range via {
		via[i] = noRoute
	}
	for i := range class {
		class[i] = classNone
	}
	hops[dstIdx] = 0
	class[dstIdx] = classCustomer

	// Stage 1: customer routes — BFS from dst climbing provider and
	// sibling edges. A node u on the frontier advertises to its providers
	// and siblings; their route to dst descends through u, leaving by the
	// reverse of the link u reached them on.
	queue := append(sc.queue[:0], dstIdx)
	for head := 0; head < len(queue); head++ {
		ui := queue[head]
		for _, l := range g.stageLinks(ui, stageUp) {
			vi := l.nbr
			if class[vi] == classCustomer {
				continue
			}
			class[vi] = classCustomer
			hops[vi] = hops[ui] + 1
			via[vi] = l.back
			queue = append(queue, vi)
		}
	}
	sc.queue = queue[:0]

	// Stage 2: peer routes — one peer edge into a customer route. Only
	// customer-route ASes advertise and a peer route never becomes one, so
	// a peer route cannot feed another; among a node's offers the first
	// shortest one (in index order) wins.
	for ui := int32(0); ui < int32(n); ui++ {
		if class[ui] != classCustomer {
			continue
		}
		h := hops[ui] + 1
		for _, l := range g.stageLinks(ui, stagePeer) {
			vi := l.nbr
			if class[vi] == classCustomer || class[vi] == classPeer && hops[vi] <= h {
				continue
			}
			class[vi] = classPeer
			hops[vi] = h
			via[vi] = l.back
		}
	}

	// Stage 3: provider routes — Dijkstra in increasing chosen-route
	// length. Every node with a customer or peer route is a seed; settling
	// a node hands its route, whatever its class, to its customers and
	// siblings that have none yet. Every push is at the popped route's
	// length + 1, so pops never decrease: the first offer an AS gets is its
	// shortest, each AS enters the heap at most once and no entry is stale.
	pq := sc.pq[:0]
	for i := int32(0); i < int32(n); i++ {
		if class[i] != classNone {
			pq = append(pq, routeEntry(i, hops[i]))
		}
	}
	pq.init()
	for len(pq) > 0 {
		it := pq.pop()
		ui, h := int32(uint32(it)), int32(it>>32)+1
		for _, l := range g.stageLinks(ui, stageDown) {
			vi := l.nbr
			// Customer and peer routes beat provider routes, and a
			// provider route already offered is no longer than this one.
			if class[vi] != classNone {
				continue
			}
			class[vi] = classProvider
			via[vi] = l.back
			pq.push(routeEntry(vi, h))
		}
	}
	sc.pq = pq[:0]
	return t
}

// tableCall is a singleflight handle for one in-progress table build.
// Waiters block on done; t is written before done is closed.
type tableCall struct {
	done chan struct{}
	t    *RouteTable
}

// Router caches per-destination routing tables. It is safe for concurrent
// use. A hit is one atomic load of the destination's slot; mu guards only
// the miss path: the FIFO budget, and the singleflight that coalesces
// concurrent misses for one destination — exactly one goroutine builds
// the table while the rest wait for its result.
type Router struct {
	g *Graph
	// tables[i] is the cached table toward the AS at dense index i, or nil.
	tables []atomic.Pointer[RouteTable]

	mu       sync.Mutex
	order    []int32 // cached destinations in insertion order, for FIFO eviction
	max      int
	inflight map[int32]*tableCall
}

// NewRouter returns a Router over g caching up to maxTables routing
// tables (0 means a generous default).
func NewRouter(g *Graph, maxTables int) *Router {
	if maxTables <= 0 {
		maxTables = 4096
	}
	return &Router{
		g:        g,
		tables:   make([]atomic.Pointer[RouteTable], g.NumNodes()),
		max:      maxTables,
		inflight: make(map[int32]*tableCall),
	}
}

// Table returns the routing table toward dst, building and caching it on
// first use. It returns nil for an unknown destination.
func (r *Router) Table(dst ASN) *RouteTable {
	i, ok := r.g.idx[dst]
	if !ok {
		return nil
	}
	return r.TableByIndex(i)
}

// TableByIndex is Table for the AS at dense index i (see Graph.Index).
func (r *Router) TableByIndex(i int32) *RouteTable {
	if t := r.tables[i].Load(); t != nil {
		return t
	}

	r.mu.Lock()
	if t := r.tables[i].Load(); t != nil {
		r.mu.Unlock()
		return t
	}
	if c, ok := r.inflight[i]; ok {
		// Another goroutine is building this table; wait for it.
		r.mu.Unlock()
		<-c.done
		return c.t
	}
	c := &tableCall{done: make(chan struct{})}
	r.inflight[i] = c
	r.mu.Unlock()

	// Build outside the lock: table construction is the expensive part and
	// other destinations must not stall behind it.
	t := r.g.BuildRouteTable(r.g.asns[i])

	r.mu.Lock()
	delete(r.inflight, i)
	if len(r.order) >= r.max {
		r.tables[r.order[0]].Store(nil)
		r.order = r.order[1:]
	}
	r.tables[i].Store(t)
	r.order = append(r.order, i)
	r.mu.Unlock()
	c.t = t
	close(c.done)
	return t
}

// Path returns the policy AS path from src to dst. To maximize cache
// reuse, the table is keyed on the smaller ASN of the pair and reversed
// when needed: modelled policy paths are symmetric enough for RTT
// estimation, which is what the latency model consumes.
func (r *Router) Path(src, dst ASN) ([]ASN, bool) {
	if src == dst {
		if !r.g.Has(src) {
			return nil, false
		}
		return []ASN{src}, true
	}
	key, from := dst, src
	reversed := false
	if src < dst {
		key, from = src, dst
		reversed = true
	}
	t := r.Table(key)
	if t == nil {
		return nil, false
	}
	p, ok := t.Path(from)
	if !ok {
		return nil, false
	}
	if reversed {
		for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
			p[i], p[j] = p[j], p[i]
		}
	}
	return p, true
}
