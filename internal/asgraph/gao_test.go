package asgraph

import (
	"testing"

	"asap/internal/sim"
)

func TestInferRelationshipsBasic(t *testing.T) {
	// Paths through a simple hierarchy. AS1 is the high-degree top
	// provider; 10 and 20 its customers; 100, 200 stubs.
	// Give AS1 a dominant degree (neighbors 10, 20, 30, 40) so it is the
	// unambiguous top provider on every path, as a tier-1 AS would be.
	paths := [][]ASN{
		{100, 10, 1, 20, 200},
		{200, 20, 1, 10, 100},
		{100, 10, 1, 20},
		{10, 1, 20, 200},
		{100, 10, 1},
		{200, 20, 1},
		{100, 10, 1, 30},
		{200, 20, 1, 40},
		{30, 1, 40},
	}
	edges := InferRelationships(paths)
	rels := relMap(edges)
	checks := []struct {
		a, b ASN
		want Relationship
	}{
		{10, 1, RelC2P},
		{20, 1, RelC2P},
		{100, 10, RelC2P},
		{200, 20, RelC2P},
	}
	for _, c := range checks {
		got, ok := rels[mkEdge(c.a, c.b)]
		if !ok {
			t.Errorf("edge %d-%d missing", c.a, c.b)
			continue
		}
		want := c.want
		if c.a > c.b {
			want = want.Invert()
		}
		if got != want {
			t.Errorf("edge %d-%d = %v, want %v", c.a, c.b, got, want)
		}
	}
}

func TestInferRelationshipsPeering(t *testing.T) {
	// Two regional providers 10 and 20 with comparable degree exchanging
	// traffic for their customers: the 10-20 edge is only ever adjacent
	// to the path top, so it should come out as p2p.
	paths := [][]ASN{
		{100, 10, 20, 200},
		{101, 10, 20, 201},
		{200, 20, 10, 100},
		{201, 20, 10, 101},
	}
	edges := InferRelationships(paths)
	rels := relMap(edges)
	if got := rels[mkEdge(10, 20)]; got != RelP2P {
		t.Errorf("edge 10-20 = %v, want p2p", got)
	}
}

func TestInferRelationshipsPrependingCollapsed(t *testing.T) {
	paths := [][]ASN{
		{100, 10, 10, 10, 1},
		{1, 10, 100},
	}
	edges := InferRelationships(paths)
	for _, e := range edges {
		if e.A == e.B {
			t.Errorf("self edge %d-%d survived prepend collapse", e.A, e.B)
		}
	}
	rels := relMap(edges)
	if _, ok := rels[mkEdge(100, 10)]; !ok {
		t.Error("edge 100-10 missing after prepend collapse")
	}
}

func TestInferRelationshipsIgnoresShortPaths(t *testing.T) {
	edges := InferRelationships([][]ASN{{42}, nil, {}})
	if len(edges) != 0 {
		t.Errorf("got %d edges from degenerate paths, want 0", len(edges))
	}
}

// TestInferOnGeneratedTopology exercises the full measurement pipeline the
// paper ran: generate ground truth, observe policy paths from vantage
// points (as a route collector would), infer relationships, compare.
func TestInferOnGeneratedTopology(t *testing.T) {
	rng := sim.NewRNG(5)
	g, err := Generate(DefaultGenConfig(400), rng)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, 128)
	asns := g.ASNs()

	// 12 vantage ASes observe paths to 150 destination ASes each,
	// mirroring RouteViews' multi-vantage RIB dumps.
	var paths [][]ASN
	vantages := rng.Sample(len(asns), 12)
	dsts := rng.Sample(len(asns), 150)
	for _, vi := range vantages {
		for _, di := range dsts {
			if vi == di {
				continue
			}
			if p, ok := r.Path(asns[vi], asns[di]); ok {
				paths = append(paths, p)
			}
		}
	}
	if len(paths) < 1000 {
		t.Fatalf("only %d observed paths; world too disconnected", len(paths))
	}

	edges := InferRelationships(paths)
	agree, total := CompareAnnotations(edges, g)
	if total == 0 {
		t.Fatal("no edges inferred")
	}
	acc := float64(agree) / float64(total)
	// Gao reports >90% accuracy on real data; our synthetic world is
	// cleaner but vantage coverage is partial. 80% is a sound floor.
	if acc < 0.80 {
		t.Errorf("inference accuracy = %.2f (%d/%d), want >= 0.80", acc, agree, total)
	}

}

func relMap(edges []InferredEdge) map[edgeKey]Relationship {
	m := make(map[edgeKey]Relationship, len(edges))
	for _, e := range edges {
		k := mkEdge(e.A, e.B)
		rel := e.Rel
		if e.A > e.B {
			rel = rel.Invert()
		}
		// Store as seen from the smaller ASN.
		m[k] = rel
	}
	return m
}
