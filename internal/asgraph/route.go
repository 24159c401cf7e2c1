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
	dst    ASN
	dstIdx int32
	// via[i] is the half-edge g.asns[i]'s route leaves by (its head is the
	// next AS toward dst), or -1 when unreachable (or i is dst).
	via []int32
}

// Dst returns the table's destination AS.
func (t *RouteTable) Dst() ASN { return t.dst }

// Hops returns the policy AS-path length from src to the destination and
// whether a route exists, by walking the route. The destination itself is
// 0 hops away.
func (t *RouteTable) Hops(src ASN) (int, bool) {
	i, ok := t.g.idx[src]
	if !ok {
		return 0, false
	}
	return t.hopsFrom(i)
}

// hopsFrom is Hops from the AS at dense index i.
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
	e := t.via[i]
	if e < 0 {
		return 0, 0, false
	}
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

// routeItem is a priority-queue entry for the provider-route Dijkstra.
type routeItem struct {
	node  int32
	class routeClass
	hops  int32
}

// routeHeap is a binary min-heap on hops. Its init, push and pop are
// container/heap's Init, Push and Pop with the interface calls inlined:
// the same sift steps, so equal-hop entries leave in the same order and
// nextHop ties resolve as they always have.
type routeHeap []routeItem

func (h routeHeap) less(i, j int) bool {
	// Settle in increasing hop count; class is fixed per node before
	// insertion so hops ordering is sufficient for correctness of the
	// relaxation (a provider's chosen route length only grows downstream).
	return h[i].hops < h[j].hops
}

func (h routeHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *routeHeap) push(it routeItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *routeHeap) pop() routeItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	q.down(0, n)
	*h = q[:n]
	return q[n]
}

func (h routeHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h routeHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// routeScratch is what one table build works in and does not return:
// each AS's route length and class, the BFS queue, the heap and the
// settled marks. Its arrays are sized to the graph, and a build resets
// what it reads before reading it.
type routeScratch struct {
	hops    []int32      // hops[i] is g.asns[i]'s route length to dst; -1 when unreachable
	class   []routeClass // class[i] is g.asns[i]'s route class
	queue   []int32
	pq      routeHeap
	settled []bool
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
		hops:    make([]int32, n),
		class:   make([]routeClass, n),
		queue:   make([]int32, 0, n),
		pq:      make(routeHeap, 0, n),
		settled: make([]bool, n),
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
// each at most once (heap entries are pushed in non-decreasing hop order,
// so no route is improved twice).
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
// working in sc. Each route's length and class stay in sc until its next
// build.
func (g *Graph) buildRouteTable(dstIdx int32, sc *routeScratch) *RouteTable {
	n := len(g.asns)
	t := &RouteTable{
		g:      g,
		dst:    g.asns[dstIdx],
		dstIdx: dstIdx,
		via:    make([]int32, n),
	}
	via, hops, class := t.via, sc.hops, sc.class
	for i := 0; i < n; i++ {
		via[i] = -1
		hops[i] = -1
		class[i] = classNone
	}
	hops[dstIdx] = 0
	class[dstIdx] = classCustomer

	// Stage 1: customer routes — BFS from dst climbing provider and
	// sibling edges. A node u on the frontier advertises to its providers
	// and siblings; their route to dst descends through u, leaving by the
	// reverse of the half-edge u reached them on.
	queue := append(sc.queue[:0], dstIdx)
	for head := 0; head < len(queue); head++ {
		ui := queue[head]
		for k := g.off[ui]; k < g.off[ui+1]; k++ {
			if rel := g.edges[k].Rel; rel != RelC2P && rel != RelS2S {
				continue
			}
			vi := g.nbr[k]
			if class[vi] == classCustomer {
				continue
			}
			class[vi] = classCustomer
			hops[vi] = hops[ui] + 1
			via[vi] = g.rev[k]
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
		for k := g.off[ui]; k < g.off[ui+1]; k++ {
			if g.edges[k].Rel != RelP2P {
				continue
			}
			vi := g.nbr[k]
			if class[vi] == classCustomer {
				continue
			}
			h := hops[ui] + 1
			if class[vi] == classPeer && hops[vi] <= h {
				continue
			}
			class[vi] = classPeer
			hops[vi] = h
			via[vi] = g.rev[k]
		}
	}

	// Stage 3: provider routes — Dijkstra in increasing chosen-route
	// length. Every node with a customer or peer route is a seed; settling
	// a node relaxes its customers (and siblings without any route).
	pq := sc.pq[:0]
	for i := 0; i < n; i++ {
		if class[i] != classNone {
			pq = append(pq, routeItem{node: int32(i), class: class[i], hops: hops[i]})
		}
	}
	pq.init()
	settled := sc.settled
	clear(settled)
	for len(pq) > 0 {
		it := pq.pop()
		ui := it.node
		if settled[ui] || hops[ui] != it.hops || class[ui] != it.class {
			continue // stale entry
		}
		settled[ui] = true
		for k := g.off[ui]; k < g.off[ui+1]; k++ {
			// u advertises its chosen route to its customers regardless of
			// the route's class, and to siblings lacking better routes.
			if rel := g.edges[k].Rel; rel != RelP2C && rel != RelS2S {
				continue
			}
			vi := g.nbr[k]
			// Customer/peer routes always beat provider routes.
			if class[vi] == classCustomer || class[vi] == classPeer {
				continue
			}
			h := hops[ui] + 1
			if class[vi] == classProvider && hops[vi] <= h {
				continue
			}
			class[vi] = classProvider
			hops[vi] = h
			via[vi] = g.rev[k]
			pq.push(routeItem{node: vi, class: classProvider, hops: h})
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

// Hops returns the policy AS-path length between src and dst.
func (r *Router) Hops(src, dst ASN) (int, bool) {
	p, ok := r.Path(src, dst)
	if !ok {
		return 0, false
	}
	return len(p) - 1, true
}
