package asgraph

import (
	"slices"
	"testing"

	"asap/internal/sim"
)

func TestValleyFreeTraverseVisitsOnce(t *testing.T) {
	g := fixtureGraph(t)
	seen := make(map[ASN]int)
	var w VFWalk
	w.Traverse(g, 100, 4, func(ai int32, hops int) bool {
		seen[g.ByIndex(ai)]++
		return true
	})
	for asn, n := range seen {
		if n != 1 {
			t.Errorf("AS%d visited %d times, want 1", asn, n)
		}
	}
	// Without pruning, the visit set must equal ValleyFreeBFS's reach.
	reach := g.ValleyFreeBFS(100, 4)
	if len(seen) != len(reach.Hops) {
		t.Errorf("traverse visited %d ASes, BFS reached %d", len(seen), len(reach.Hops))
	}
	for asn, h := range reach.Hops {
		if _, ok := seen[asn]; !ok {
			t.Errorf("AS%d (hops %d) not visited", asn, h)
		}
	}
}

func TestValleyFreeTraversePruning(t *testing.T) {
	g := fixtureGraph(t)
	// Prune at AS10: nothing beyond it should be visited from 100 except
	// what is reachable without expanding 10 — i.e. only 100 and 10.
	var visited []ASN
	var w VFWalk
	w.Traverse(g, 100, 4, func(ai int32, hops int) bool {
		visited = append(visited, g.ByIndex(ai))
		return g.ByIndex(ai) != 10
	})
	if len(visited) != 2 {
		t.Fatalf("visited %v, want [100 10]", visited)
	}
}

func TestValleyFreeTraversePrunedSource(t *testing.T) {
	g := fixtureGraph(t)
	calls := 0
	var w VFWalk
	w.Traverse(g, 100, 4, func(int32, int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("pruned source: %d visits, want 1", calls)
	}
}

func TestValleyFreeTraverseUnknownSource(t *testing.T) {
	g := fixtureGraph(t)
	var w VFWalk
	w.Traverse(g, 4242, 4, func(int32, int) bool {
		t.Fatal("visit called for unknown source")
		return false
	})
}

// vfVisit is one visitor call: the AS's dense index and its hop count.
type vfVisit struct {
	ai   int32
	hops int
}

// TestValleyFreeTraverseReusedWalkMatchesFresh runs one VFWalk over many
// sources, depths and prune patterns, on two graphs of different sizes in
// turn, and checks every visit sequence against a fresh walk's: nothing a
// search leaves in the walk's state may change the next one.
func TestValleyFreeTraverseReusedWalkMatchesFresh(t *testing.T) {
	gen, err := Generate(DefaultGenConfig(300), sim.NewRNG(41))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*Graph{gen, fixtureGraph(t), gen}
	// prune reports whether pattern p stops expansion at index ai: never,
	// one AS in three or seven by a fixed hash, or every AS past the source.
	prune := func(p int, ai int32, hops int) bool {
		switch p {
		case 0:
			return false
		case 1, 2:
			return (uint32(ai)*2654435761)>>7%uint32(4*p-1) == 0
		default:
			return hops > 0
		}
	}
	walkOnce := func(w *VFWalk, g *Graph, src ASN, depth, p int) []vfVisit {
		var seq []vfVisit
		w.Traverse(g, src, depth, func(ai int32, hops int) bool {
			seq = append(seq, vfVisit{ai, hops})
			return !prune(p, ai, hops)
		})
		return seq
	}

	var reused VFWalk
	runs, visits := 0, 0
	for gi, g := range graphs {
		asns := g.ASNs()
		for si := 0; si < len(asns); si += 1 + len(asns)/25 {
			for depth := 0; depth <= 6; depth += 2 {
				for p := 0; p < 4; p++ {
					var fresh VFWalk
					want := walkOnce(&fresh, g, asns[si], depth, p)
					got := walkOnce(&reused, g, asns[si], depth, p)
					if !slices.Equal(got, want) {
						t.Fatalf("graph %d, AS%d, depth %d, pattern %d: reused walk visited\n%v\nfresh walk\n%v",
							gi, asns[si], depth, p, got, want)
					}
					runs++
					visits += len(want)
				}
			}
		}
	}
	if visits <= runs {
		t.Fatalf("%d runs made only %d visits: the walks never left their sources", runs, visits)
	}
}
