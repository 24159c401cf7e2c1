package asgraph

import "sort"

// Gao's AS-relationship inference [Gao, IEEE/ACM ToN 2001], the algorithm
// the paper uses to annotate its measured AS graph ("we construct annotated
// AS graphs using the inferring AS relationships algorithm in [9]").
//
// Input is a multiset of observed AS paths (e.g. from BGP table dumps).
// The algorithm exploits that observed BGP paths are valley-free: the
// highest-degree AS on a path is its "top provider"; edges before it go
// uphill (customer->provider) and edges after it go downhill. Counting how
// often each AS appears to transit for a neighbor classifies edges as
// provider-customer or sibling; a refinement pass identifies peer edges
// among those adjacent to top providers.

// Gao's thresholds, at the values Gao reports.
const (
	// siblingL is Gao's L: an edge with transit counts in both
	// directions, each <= siblingL, may be classified sibling; with a
	// count above siblingL in one direction it is provider-customer in
	// the majority direction.
	siblingL = 1
	// peerDegreeRatio is Gao's R: a candidate peer edge is kept only if
	// the endpoint degree ratio is below it.
	peerDegreeRatio = 60
)

type edgeKey struct{ a, b ASN } // a < b always

func mkEdge(x, y ASN) edgeKey {
	if x < y {
		return edgeKey{x, y}
	}
	return edgeKey{y, x}
}

// InferredEdge is one annotated edge of the inferred graph. Rel is the
// relationship of A toward B (e.g. RelC2P means A is B's customer).
type InferredEdge struct {
	A, B ASN
	Rel  Relationship
}

// InferRelationships runs Gao's algorithm over the observed AS paths and
// returns annotated edges for every AS link seen in them. Paths shorter
// than two ASes are ignored; consecutive duplicate ASes (prepending) are
// collapsed.
func InferRelationships(paths [][]ASN) []InferredEdge {
	// Phase 0: collapse prepending and compute degrees from the paths
	// themselves (the only view a measurement study has).
	clean := make([][]ASN, 0, len(paths))
	neighbors := make(map[ASN]map[ASN]struct{})
	addNbr := func(a, b ASN) {
		m := neighbors[a]
		if m == nil {
			m = make(map[ASN]struct{})
			neighbors[a] = m
		}
		m[b] = struct{}{}
	}
	for _, p := range paths {
		cp := make([]ASN, 0, len(p))
		for _, asn := range p {
			if len(cp) > 0 && cp[len(cp)-1] == asn {
				continue
			}
			cp = append(cp, asn)
		}
		if len(cp) < 2 {
			continue
		}
		clean = append(clean, cp)
		for i := 0; i+1 < len(cp); i++ {
			addNbr(cp[i], cp[i+1])
			addNbr(cp[i+1], cp[i])
		}
	}
	degree := func(a ASN) int { return len(neighbors[a]) }

	// Phase 1: transit counting. transit[{u,v} directed u->v] counts paths
	// that imply u provides transit for v.
	type dirKey struct{ from, to ASN }
	transit := make(map[dirKey]int)
	topIndex := func(p []ASN) int {
		best, bestDeg := 0, degree(p[0])
		for i := 1; i < len(p); i++ {
			if d := degree(p[i]); d > bestDeg {
				best, bestDeg = i, d
			}
		}
		return best
	}
	for _, p := range clean {
		j := topIndex(p)
		for i := 0; i < j; i++ {
			// Uphill: p[i+1] transits for p[i].
			transit[dirKey{p[i+1], p[i]}]++
		}
		for i := j; i+1 < len(p); i++ {
			// Downhill: p[i] transits for p[i+1].
			transit[dirKey{p[i], p[i+1]}]++
		}
	}

	// Phase 2: peering candidates — only edges adjacent to a path's top
	// provider may be peer edges; all other edges are definitely not.
	notPeer := make(map[edgeKey]bool)
	candidate := make(map[edgeKey]bool)
	for _, p := range clean {
		j := topIndex(p)
		for i := 0; i+1 < len(p); i++ {
			k := mkEdge(p[i], p[i+1])
			if i == j-1 || i == j {
				candidate[k] = true
			} else {
				notPeer[k] = true
			}
		}
	}

	// Phase 3: classify every observed edge.
	edges := make(map[edgeKey]struct{})
	for k := range candidate {
		edges[k] = struct{}{}
	}
	for dk := range transit {
		edges[mkEdge(dk.from, dk.to)] = struct{}{}
	}
	keys := make([]edgeKey, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})

	out := make([]InferredEdge, 0, len(keys))
	for _, k := range keys {
		ab := transit[dirKey{k.a, k.b}] // a transits for b => a provider
		ba := transit[dirKey{k.b, k.a}] // b transits for a => b provider
		var rel Relationship
		switch {
		case ab > 0 && ba > 0 && ab <= siblingL && ba <= siblingL:
			rel = RelS2S
		case ab > 0 && ba > 0:
			// Mixed evidence above the sibling threshold: majority wins.
			if ab >= ba {
				rel = RelP2C // a provider of b => a->b is p2c
			} else {
				rel = RelC2P
			}
		case ab > 0:
			rel = RelP2C
		case ba > 0:
			rel = RelC2P
		default:
			// No transit evidence at all; candidate-only edge.
			rel = RelP2P
		}
		// Peering refinement: a candidate edge never seen mid-path whose
		// endpoint degrees are comparable is re-classified as peering,
		// unless the transit evidence is strongly directional.
		if candidate[k] && !notPeer[k] && rel != RelS2S {
			da, db := float64(degree(k.a)), float64(degree(k.b))
			if da == 0 {
				da = 1
			}
			if db == 0 {
				db = 1
			}
			ratio := da / db
			if ratio < 1 {
				ratio = 1 / ratio
			}
			directional := (ab == 0 && ba > siblingL) || (ba == 0 && ab > siblingL)
			if ratio < peerDegreeRatio && !directional {
				rel = RelP2P
			}
		}
		out = append(out, InferredEdge{A: k.a, B: k.b, Rel: rel})
	}
	return out
}

// CompareAnnotations measures inference accuracy against a ground-truth
// graph: the fraction of inferred edges that exist in truth with the same
// relationship. Edges absent from truth are counted as wrong.
func CompareAnnotations(inferred []InferredEdge, truth *Graph) (agree, total int) {
	for _, e := range inferred {
		total++
		rel, ok := truth.Rel(e.A, e.B)
		if ok && rel == e.Rel {
			agree++
		}
	}
	return agree, total
}
