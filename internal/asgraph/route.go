package asgraph

import (
	"container/heap"
	"sync"
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
// source AS that can reach it.
type RouteTable struct {
	g   *Graph
	dst ASN
	// nextHop[i] is the dense index of the next AS on the path from
	// g.asns[i] toward dst, or -1 when unreachable (or i is dst).
	nextHop []int32
	// hops[i] is the AS-path length (edge count) from g.asns[i] to dst;
	// -1 when unreachable.
	hops []int32
	// class[i] is the route class at g.asns[i].
	class []routeClass
}

// Dst returns the table's destination AS.
func (t *RouteTable) Dst() ASN { return t.dst }

// Hops returns the policy AS-path length from src to the destination and
// whether a route exists. The destination itself is 0 hops away.
func (t *RouteTable) Hops(src ASN) (int, bool) {
	i, ok := t.g.idx[src]
	if !ok || t.hops[i] < 0 {
		return 0, false
	}
	return int(t.hops[i]), true
}

// Path returns the full policy AS path from src to the destination,
// inclusive of both endpoints, and whether a route exists.
func (t *RouteTable) Path(src ASN) ([]ASN, bool) {
	i, ok := t.g.idx[src]
	if !ok || t.hops[i] < 0 {
		return nil, false
	}
	path := make([]ASN, 0, t.hops[i]+1)
	cur := int32(i)
	path = append(path, t.g.asns[cur])
	for t.g.asns[cur] != t.dst {
		cur = t.nextHop[cur]
		if cur < 0 {
			return nil, false // corrupt table; treat as unreachable
		}
		path = append(path, t.g.asns[cur])
	}
	return path, true
}

// routeItem is a priority-queue entry for the provider-route Dijkstra.
type routeItem struct {
	node  int32
	class routeClass
	hops  int32
}

type routePQ []routeItem

func (q routePQ) Len() int { return len(q) }
func (q routePQ) Less(i, j int) bool {
	// Settle in increasing hop count; class is fixed per node before
	// insertion so hops ordering is sufficient for correctness of the
	// relaxation (a provider's chosen route length only grows downstream).
	return q[i].hops < q[j].hops
}
func (q routePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *routePQ) Push(x interface{}) { *q = append(*q, x.(routeItem)) }
func (q *routePQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// BuildRouteTable computes the policy routing table toward dst. It returns
// nil if dst is not in the graph.
func (g *Graph) BuildRouteTable(dst ASN) *RouteTable {
	dstIdx, ok := g.idx[dst]
	if !ok {
		return nil
	}
	n := len(g.asns)
	t := &RouteTable{
		g:       g,
		dst:     dst,
		nextHop: make([]int32, n),
		hops:    make([]int32, n),
		class:   make([]routeClass, n),
	}
	for i := 0; i < n; i++ {
		t.nextHop[i] = -1
		t.hops[i] = -1
		t.class[i] = classNone
	}
	t.hops[dstIdx] = 0
	t.class[dstIdx] = classCustomer

	// Stage 1: customer routes — BFS from dst climbing provider and
	// sibling edges. A node u on the frontier advertises to its providers
	// and siblings; their route to dst descends through u.
	queue := []int32{dstIdx}
	for len(queue) > 0 {
		ui := queue[0]
		queue = queue[1:]
		u := g.asns[ui]
		for _, e := range g.adj[u] {
			if e.Rel != RelC2P && e.Rel != RelS2S {
				continue
			}
			vi := g.idx[e.To]
			if t.class[vi] == classCustomer {
				continue
			}
			t.class[vi] = classCustomer
			t.hops[vi] = t.hops[ui] + 1
			t.nextHop[vi] = ui
			queue = append(queue, vi)
		}
	}

	// Stage 2: peer routes — one peer edge into a customer route.
	// Collect first, assign after, so a peer route never feeds another
	// peer route.
	type peerRoute struct {
		vi, ui int32
		hops   int32
	}
	var peers []peerRoute
	for ui := 0; ui < n; ui++ {
		if t.class[ui] != classCustomer {
			continue
		}
		u := g.asns[ui]
		for _, e := range g.adj[u] {
			if e.Rel != RelP2P {
				continue
			}
			vi := g.idx[e.To]
			if t.class[vi] == classCustomer {
				continue
			}
			h := t.hops[ui] + 1
			if t.class[vi] == classPeer && t.hops[vi] <= h {
				continue
			}
			peers = append(peers, peerRoute{vi: vi, ui: int32(ui), hops: h})
		}
	}
	for _, p := range peers {
		if t.class[p.vi] == classPeer && t.hops[p.vi] <= p.hops {
			continue
		}
		t.class[p.vi] = classPeer
		t.hops[p.vi] = p.hops
		t.nextHop[p.vi] = p.ui
	}

	// Stage 3: provider routes — Dijkstra in increasing chosen-route
	// length. Every node with a customer or peer route is a seed; settling
	// a node relaxes its customers (and siblings without any route).
	pq := make(routePQ, 0, n/4)
	for i := 0; i < n; i++ {
		if t.class[i] != classNone {
			pq = append(pq, routeItem{node: int32(i), class: t.class[i], hops: t.hops[i]})
		}
	}
	heap.Init(&pq)
	settled := make([]bool, n)
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(routeItem)
		ui := it.node
		if settled[ui] || t.hops[ui] != it.hops || t.class[ui] != it.class {
			continue // stale entry
		}
		settled[ui] = true
		u := g.asns[ui]
		for _, e := range g.adj[u] {
			// u advertises its chosen route to its customers regardless of
			// the route's class, and to siblings lacking better routes.
			if e.Rel != RelP2C && e.Rel != RelS2S {
				continue
			}
			vi := g.idx[e.To]
			// Customer/peer routes always beat provider routes.
			if t.class[vi] == classCustomer || t.class[vi] == classPeer {
				continue
			}
			h := t.hops[ui] + 1
			if t.class[vi] == classProvider && t.hops[vi] <= h {
				continue
			}
			t.class[vi] = classProvider
			t.hops[vi] = h
			t.nextHop[vi] = ui
			heap.Push(&pq, routeItem{node: vi, class: classProvider, hops: h})
		}
	}
	return t
}

// tableCall is a singleflight handle for one in-progress table build.
// Waiters block on done; t is written before done is closed.
type tableCall struct {
	done chan struct{}
	t    *RouteTable
}

// Router caches per-destination routing tables. It is safe for concurrent
// use: one RWMutex guards the cache (it is read only on a cluster-pair
// miss in netmodel, so striping it measured no different, DESIGN.md §9),
// and concurrent misses for the same destination are coalesced
// singleflight-style — exactly one goroutine builds the table while the
// rest wait for its result.
type Router struct {
	g *Graph

	mu       sync.RWMutex
	tables   map[ASN]*RouteTable
	order    []ASN // insertion order for FIFO eviction
	max      int
	inflight map[ASN]*tableCall
}

// NewRouter returns a Router over g caching up to maxTables routing
// tables (0 means a generous default).
func NewRouter(g *Graph, maxTables int) *Router {
	if maxTables <= 0 {
		maxTables = 4096
	}
	return &Router{
		g:        g,
		tables:   make(map[ASN]*RouteTable),
		max:      maxTables,
		inflight: make(map[ASN]*tableCall),
	}
}

// Table returns the routing table toward dst, building and caching it on
// first use. It returns nil for an unknown destination.
func (r *Router) Table(dst ASN) *RouteTable {
	r.mu.RLock()
	t := r.tables[dst]
	r.mu.RUnlock()
	if t != nil {
		return t
	}

	r.mu.Lock()
	if t := r.tables[dst]; t != nil {
		r.mu.Unlock()
		return t
	}
	if c, ok := r.inflight[dst]; ok {
		// Another goroutine is building this table; wait for it.
		r.mu.Unlock()
		<-c.done
		return c.t
	}
	c := &tableCall{done: make(chan struct{})}
	r.inflight[dst] = c
	r.mu.Unlock()

	// Build outside the lock: table construction is the expensive part and
	// other destinations must not stall behind it.
	t = r.g.BuildRouteTable(dst)

	r.mu.Lock()
	delete(r.inflight, dst)
	if t != nil {
		if len(r.order) >= r.max {
			evict := r.order[0]
			r.order = r.order[1:]
			delete(r.tables, evict)
		}
		r.tables[dst] = t
		r.order = append(r.order, dst)
	}
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
