package asgraph

import (
	"reflect"
	"testing"
)

// fixtureGraph builds the hand-checked topology used across tests:
//
//	AS1 --p2p-- AS2          (tier-1 clique)
//	AS10 c2p AS1             (transit under 1)
//	AS20 c2p AS2             (transit under 2)
//	AS100 c2p AS10           (stub)
//	AS200 c2p AS20           (stub)
//	AS300 c2p AS10, AS300 c2p AS20   (multi-homed stub, Fig. 4 shortcut)
//	AS301 s2s AS300, AS301 c2p AS20  (sibling of 300)
func fixtureGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddNode(Node{ASN: 1, Tier: TierT1})
	b.AddNode(Node{ASN: 2, Tier: TierT1})
	b.AddNode(Node{ASN: 10, Tier: TierTransit})
	b.AddNode(Node{ASN: 20, Tier: TierTransit})
	b.AddNode(Node{ASN: 100, Tier: TierStub})
	b.AddNode(Node{ASN: 200, Tier: TierStub})
	b.AddNode(Node{ASN: 300, Tier: TierStub})
	b.AddNode(Node{ASN: 301, Tier: TierStub})
	b.AddEdge(1, 2, RelP2P)
	b.AddEdge(10, 1, RelC2P)
	b.AddEdge(20, 2, RelC2P)
	b.AddEdge(100, 10, RelC2P)
	b.AddEdge(200, 20, RelC2P)
	b.AddEdge(300, 10, RelC2P)
	b.AddEdge(300, 20, RelC2P)
	b.AddEdge(301, 300, RelS2S)
	b.AddEdge(301, 20, RelC2P)
	return b.Build()
}

func TestGraphBasics(t *testing.T) {
	g := fixtureGraph(t)
	if got, want := g.NumNodes(), 8; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 9; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	rel, ok := g.Rel(100, 10)
	if !ok || rel != RelC2P {
		t.Errorf("Rel(100,10) = %v,%v, want c2p,true", rel, ok)
	}
	rel, ok = g.Rel(10, 100)
	if !ok || rel != RelP2C {
		t.Errorf("Rel(10,100) = %v,%v, want p2c,true", rel, ok)
	}
	if _, ok := g.Rel(100, 200); ok {
		t.Error("Rel(100,200) should not exist")
	}
	if g.Degree(300) != 3 {
		t.Errorf("Degree(300) = %d, want 3", g.Degree(300))
	}
}

func TestGraphIndexRoundTrip(t *testing.T) {
	g := fixtureGraph(t)
	for _, asn := range g.ASNs() {
		i, ok := g.Index(asn)
		if !ok {
			t.Fatalf("Index(%d) missing", asn)
		}
		if back := g.ByIndex(i); back != asn {
			t.Fatalf("ByIndex(Index(%d)) = %d", asn, back)
		}
	}
	if _, ok := g.Index(9999); ok {
		t.Error("Index(9999) should be absent")
	}
}

func TestRelationshipInvert(t *testing.T) {
	cases := []struct{ in, want Relationship }{
		{RelC2P, RelP2C},
		{RelP2C, RelC2P},
		{RelP2P, RelP2P},
		{RelS2S, RelS2S},
	}
	for _, c := range cases {
		if got := c.in.Invert(); got != c.want {
			t.Errorf("%v.Invert() = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTopDegreeASNs(t *testing.T) {
	g := fixtureGraph(t)
	top := g.TopDegreeASNs(3)
	if len(top) != 3 {
		t.Fatalf("len = %d, want 3", len(top))
	}
	// Degrees: 10->3 (1,100,300), 20->4 (2,200,300,301), 300->3, others <3.
	if top[0] != 20 {
		t.Errorf("top[0] = %d, want 20 (highest degree)", top[0])
	}
	// Tie between 10 and 300 (degree 3) breaks by ascending ASN.
	if top[1] != 10 || top[2] != 300 {
		t.Errorf("top[1:] = %v, want [10 300]", top[1:])
	}
	if got := g.TopDegreeASNs(100); len(got) != g.NumNodes() {
		t.Errorf("TopDegreeASNs(100) len = %d, want %d", len(got), g.NumNodes())
	}
}

// IsValleyFree is the tests' valley-freeness oracle: it reports whether
// the given AS path (a sequence of adjacent ASes) is valley-free in g.
// Paths with unknown edges are not valley-free. A path of fewer than two
// ASes is trivially valley-free.
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

func TestIsValleyFree(t *testing.T) {
	g := fixtureGraph(t)
	cases := []struct {
		name string
		path []ASN
		want bool
	}{
		{"up-up-peer-down-down", []ASN{100, 10, 1, 2, 20, 200}, true},
		{"pure uphill", []ASN{100, 10, 1}, true},
		{"pure downhill", []ASN{1, 10, 100}, true},
		{"up-down shortcut via multihomed stub", []ASN{10, 300, 20}, false},
		{"valley through stub", []ASN{100, 10, 300, 20, 200}, false},
		{"two peer edges", []ASN{10, 1, 2, 20}, true}, // one peer edge only (1-2); rest up/down
		{"down then up", []ASN{1, 10, 300, 20}, false},
		{"sibling mid-path keeps phase", []ASN{300, 301, 20}, true},
		{"nonexistent edge", []ASN{100, 200}, false},
		{"single node", []ASN{100}, true},
		{"empty", nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := g.IsValleyFree(c.path); got != c.want {
				t.Errorf("IsValleyFree(%v) = %v, want %v", c.path, got, c.want)
			}
		})
	}
}

func TestValleyFreeBFS(t *testing.T) {
	g := fixtureGraph(t)

	reach := g.ValleyFreeBFS(100, 4)
	wantHops := map[ASN]int{
		100: 0,
		10:  1,
		1:   2,
		300: 2, // 100-10-300 (up then down)
		2:   3, // 100-10-1-2 (peer edge)
		301: 3, // 100-10-300-301 (sibling after descending)
		20:  4, // 100-10-1-2-20
	}
	for asn, want := range wantHops {
		got, ok := reach.Hops[asn]
		if !ok {
			t.Errorf("AS%d unreachable, want %d hops", asn, want)
			continue
		}
		if got != want {
			t.Errorf("hops(100->%d) = %d, want %d", asn, got, want)
		}
	}
	// 200 is 5 valley-free hops away (100-10-1-2-20-200): outside k=4.
	if _, ok := reach.Hops[200]; ok {
		t.Error("AS200 should be outside the k=4 valley-free horizon")
	}

	reach5 := g.ValleyFreeBFS(100, 5)
	if h, ok := reach5.Hops[200]; !ok || h != 5 {
		t.Errorf("hops(100->200) with k=5 = %d,%v, want 5,true", h, ok)
	}

	// The descend-only constraint: from tier-1 AS1, everything is downhill
	// or one peer edge then downhill, so all nodes are reachable.
	reachT1 := g.ValleyFreeBFS(1, 4)
	if len(reachT1.Hops) != g.NumNodes() {
		t.Errorf("from AS1 reached %d nodes, want all %d", len(reachT1.Hops), g.NumNodes())
	}

	if got := g.ValleyFreeBFS(9999, 4); len(got.Hops) != 0 {
		t.Errorf("unknown source reached %d nodes, want 0", len(got.Hops))
	}
	if got := g.ValleyFreeBFS(100, 0); len(got.Hops) != 1 {
		t.Errorf("k=0 reached %d nodes, want 1 (self)", len(got.Hops))
	}
}

func TestValleyFreeBFSRevisitWithBetterPhase(t *testing.T) {
	// A node first reached in the descending phase must still be usable
	// as a transit point when reached later in the climbing phase.
	//
	//  s c2p m, m p2c x, x p2c y   and   s c2p x' ... construct:
	//  s -> a (provider), a -> b (customer of a), b -> c (customer of b).
	//  Also s -> b directly as customer (s c2p b).
	// From s: b is reachable downhill via a (2 hops, phase down) and
	// uphill directly (1 hop, phase up); c must be reachable through the
	// uphill state of b then... c is b's customer: descending is fine
	// either way. Use a peer edge instead to force the distinction:
	//  b p2p d. Path s-b-d is valley-free (up, peer). Path s-a-b-d is not
	//  (down then peer). So d must appear, which requires the (b, up)
	//  state to be explored even when (b, down) was seen first.
	b := NewBuilder()
	b.AddEdge(1000, 1001, RelC2P) // s c2p a
	b.AddEdge(1001, 1002, RelP2C) // a provider of b
	b.AddEdge(1000, 1002, RelC2P) // s c2p b
	b.AddEdge(1002, 1003, RelP2P) // b p2p d
	g := b.Build()

	reach := g.ValleyFreeBFS(1000, 3)
	if h, ok := reach.Hops[1003]; !ok || h != 2 {
		t.Errorf("hops(s->d) = %d,%v, want 2,true (via up-phase state of b)", h, ok)
	}
	// b is reached twice, at 1 hop climbing and at 2 hops descending
	// through a: the shared traverse loop visits each AS once, so the
	// count it records must be the first (minimum) one.
	want := map[ASN]int{1000: 0, 1001: 1, 1002: 1, 1003: 2}
	if !reflect.DeepEqual(reach.Hops, want) {
		t.Errorf("hops = %v, want %v", reach.Hops, want)
	}
	// One hop short of d, the horizon still cuts it off.
	if got := g.ValleyFreeBFS(1000, 1).Hops; !reflect.DeepEqual(got, map[ASN]int{1000: 0, 1001: 1, 1002: 1}) {
		t.Errorf("k=1 hops = %v, want s, a and b only", got)
	}
}
