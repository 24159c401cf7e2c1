package asgraph

import (
	"container/heap"
	"testing"

	"asap/internal/sim"
)

func TestRouteTableCustomerPreference(t *testing.T) {
	// A destination reachable both through a short provider route and a
	// longer customer route must be reached via the customer route:
	// policy preference beats hop count.
	//
	//   d p2c c1 p2c c2 p2c src   (src has a 3-hop customer... wait,
	// routes are toward d: src's route classes are about how src LEARNS d.)
	//
	// Construct: src has provider p; p has provider d (so src-p-d is a
	// 2-hop provider route). src also has customer chain: src p2c a,
	// a p2c b, b c2p d?? — that would be a valley. Customer routes at src
	// mean d is reachable strictly downhill from src:
	// src p2c a, a p2c b, b p2c d: 3-hop customer route.
	b := NewBuilder()
	b.AddEdge(999, 1, RelC2P) // src customer of p(1)
	b.AddEdge(1, 7, RelC2P)   // p customer of d(7): provider route src-1-7
	b.AddEdge(999, 2, RelP2C) // src provider of a(2)
	b.AddEdge(2, 3, RelP2C)   // a provider of b(3)
	b.AddEdge(3, 7, RelP2C)   // b provider of d(7): customer route 999-2-3-7
	g := b.Build()

	rt := g.BuildRouteTable(7)
	path, ok := rt.Path(999)
	if !ok {
		t.Fatal("no route from 999 to 7")
	}
	want := []ASN{999, 2, 3, 7}
	if !equalPath(path, want) {
		t.Errorf("path = %v, want customer route %v", path, want)
	}
	if h, _ := rt.Hops(999); h != 3 {
		t.Errorf("hops = %d, want 3", h)
	}
}

func TestRouteTablePeerOverProvider(t *testing.T) {
	// src peers with x which is d's provider (peer route, 2 hops);
	// src also has provider route via its provider p (2 hops).
	// Peer route must win at equal length.
	b := NewBuilder()
	b.AddEdge(999, 5, RelP2P) // src p2p x(5)
	b.AddEdge(5, 7, RelP2C)   // x provider of d
	b.AddEdge(999, 6, RelC2P) // src customer of p(6)
	b.AddEdge(6, 7, RelP2C)   // p provider of d
	g := b.Build()

	rt := g.BuildRouteTable(7)
	path, ok := rt.Path(999)
	if !ok {
		t.Fatal("no route")
	}
	want := []ASN{999, 5, 7}
	if !equalPath(path, want) {
		t.Errorf("path = %v, want peer route %v", path, want)
	}
}

func TestRouteTableValleyFreeOnly(t *testing.T) {
	// Fixture: route from 100 to 200 must climb to the tier-1 clique and
	// descend; the multi-homed stub 300 must NOT be used as transit
	// (100-10-300-20-200 has a valley at 300).
	g := fixtureGraph(t)
	rt := g.BuildRouteTable(200)
	path, ok := rt.Path(100)
	if !ok {
		t.Fatal("no route from 100 to 200")
	}
	want := []ASN{100, 10, 1, 2, 20, 200}
	if !equalPath(path, want) {
		t.Errorf("path = %v, want %v", path, want)
	}
	if !g.IsValleyFree(path) {
		t.Errorf("policy path %v is not valley-free", path)
	}
}

func TestRouteTableUnreachable(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(1, 2, RelP2C)
	b.AddNode(Node{ASN: 50, Tier: TierStub}) // isolated
	g := b.Build()
	rt := g.BuildRouteTable(2)
	if _, ok := rt.Hops(50); ok {
		t.Error("isolated AS should be unreachable")
	}
	if _, ok := rt.Path(50); ok {
		t.Error("isolated AS should have no path")
	}
	if g.BuildRouteTable(777) != nil {
		t.Error("table for unknown destination should be nil")
	}
}

func TestRouterPathSymmetryAndCache(t *testing.T) {
	g := fixtureGraph(t)
	r := NewRouter(g, 4)
	p1, ok1 := r.Path(100, 200)
	p2, ok2 := r.Path(200, 100)
	if !ok1 || !ok2 {
		t.Fatal("expected routes both ways")
	}
	if len(p1) != len(p2) {
		t.Errorf("asymmetric path lengths: %v vs %v", p1, p2)
	}
	for i := range p1 {
		if p1[i] != p2[len(p2)-1-i] {
			t.Errorf("reverse mismatch: %v vs %v", p1, p2)
			break
		}
	}
	if p, ok := r.Path(100, 100); !ok || len(p) != 1 || p[0] != 100 {
		t.Errorf("self path = %v,%v", p, ok)
	}
	if _, ok := r.Path(100, 9999); ok {
		t.Error("path to unknown AS should fail")
	}
	if h, ok := r.Hops(100, 200); !ok || h != 5 {
		t.Errorf("Hops(100,200) = %d,%v, want 5,true", h, ok)
	}
}

// cachedTables returns the number of routing tables r currently caches.
func cachedTables(r *Router) int {
	n := 0
	for i := range r.tables {
		if r.tables[i].Load() != nil {
			n++
		}
	}
	return n
}

func TestRouterEviction(t *testing.T) {
	g := fixtureGraph(t)
	r := NewRouter(g, 2)
	asns := g.ASNs()
	for _, dst := range asns {
		r.Table(dst)
	}
	if n := cachedTables(r); n > 2 {
		t.Errorf("cache holds %d tables, cap 2", n)
	}
	// Evicted tables must still be rebuildable.
	if r.Table(asns[0]) == nil {
		t.Error("evicted destination no longer buildable")
	}
}

func TestGeneratedGraphPolicyPathsAreValleyFree(t *testing.T) {
	rng := sim.NewRNG(42)
	g, err := Generate(DefaultGenConfig(300), rng)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, 64)
	asns := g.ASNs()
	pairs := 0
	for i := 0; i < 200; i++ {
		a := asns[rng.Intn(len(asns))]
		b := asns[rng.Intn(len(asns))]
		if a == b {
			continue
		}
		p, ok := r.Path(a, b)
		if !ok {
			continue // disconnected fringe is possible but should be rare
		}
		pairs++
		if !g.IsValleyFree(p) {
			t.Fatalf("policy path %v not valley-free", p)
		}
		if p[0] != a || p[len(p)-1] != b {
			t.Fatalf("path endpoints %v do not match %d->%d", p, a, b)
		}
	}
	if pairs < 150 {
		t.Errorf("only %d/200 sampled pairs connected; generator too fragmented", pairs)
	}
}

func equalPath(a, b []ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refTable is the reference route table: the three-stage construction
// over the per-ASN adjacency, with its provider-route Dijkstra on
// container/heap. BuildRouteTable's typed heap copies container/heap's
// sift steps, so the two must agree on every next hop, tie included.
type refTable struct {
	nextHop, hops []int32
	class         []routeClass
}

type routePQ []routeItem

func (q routePQ) Len() int           { return len(q) }
func (q routePQ) Less(i, j int) bool { return q[i].hops < q[j].hops }
func (q routePQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *routePQ) Push(x any)        { *q = append(*q, x.(routeItem)) }
func (q *routePQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func buildRouteTableRef(g *Graph, dst ASN) refTable {
	dstIdx := g.idx[dst]
	n := len(g.asns)
	t := refTable{nextHop: make([]int32, n), hops: make([]int32, n), class: make([]routeClass, n)}
	for i := 0; i < n; i++ {
		t.nextHop[i] = -1
		t.hops[i] = -1
		t.class[i] = classNone
	}
	t.hops[dstIdx] = 0
	t.class[dstIdx] = classCustomer

	queue := []int32{dstIdx}
	for len(queue) > 0 {
		ui := queue[0]
		queue = queue[1:]
		for _, e := range g.Edges(g.asns[ui]) {
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

	type peerRoute struct {
		vi, ui int32
		hops   int32
	}
	var peers []peerRoute
	for ui := 0; ui < n; ui++ {
		if t.class[ui] != classCustomer {
			continue
		}
		for _, e := range g.Edges(g.asns[ui]) {
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
			continue
		}
		settled[ui] = true
		for _, e := range g.Edges(g.asns[ui]) {
			if e.Rel != RelP2C && e.Rel != RelS2S {
				continue
			}
			vi := g.idx[e.To]
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

// TestBuildRouteTableMatchesHeapReference requires the CSR build to
// reproduce the reference table for every destination of the tiny and
// small evaluation worlds' topologies (each world's generator draws first
// from its seed): the same next hop, hop count and class at every AS.
func TestBuildRouteTableMatchesHeapReference(t *testing.T) {
	for _, ases := range []int{200, 2000} {
		g, err := Generate(DefaultGenConfig(ases), sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range g.ASNs() {
			got, want := g.BuildRouteTable(dst), buildRouteTableRef(g, dst)
			for i := range want.hops {
				nh := int32(-1)
				if _, next, ok := got.Step(int32(i)); ok {
					nh = next
				}
				if nh != want.nextHop[i] || got.hops[i] != want.hops[i] || got.class[i] != want.class[i] {
					t.Fatalf("%d ASes, dst %d, src %d: (next %d, hops %d, class %d), reference (%d, %d, %d)",
						ases, dst, g.asns[i], nh, got.hops[i], got.class[i], want.nextHop[i], want.hops[i], want.class[i])
				}
			}
		}
	}
}

// TestBuildRouteTableAllocs pins BuildRouteTable's allocations: the table
// and its three arrays, the BFS queue, the heap and the settled marks —
// the same count at every graph size, so nothing grows on the way.
func TestBuildRouteTableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const want = 7
	for _, ases := range []int{200, 2000} {
		g, err := Generate(DefaultGenConfig(ases), sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		asns := g.ASNs()
		i := 0
		if n := testing.AllocsPerRun(50, func() {
			g.BuildRouteTable(asns[i%len(asns)])
			i += 37
		}); n != want {
			t.Errorf("%d ASes: BuildRouteTable allocates %.1f per table, want %d", ases, n, want)
		}
	}
}
