// Package asgraph models the Internet's Autonomous System topology: an
// annotated AS graph whose edges carry commercial relationships
// (provider-customer, peer-peer, sibling), a tiered synthetic topology
// generator, Gao's relationship-inference algorithm, valley-free breadth
// first search (the engine behind ASAP's construct-close-cluster-set), and
// BGP-style policy routing.
//
// The paper builds this graph from RouteViews/RIPE/CERNET BGP dumps of
// 2005-09-26 (20,955 AS nodes, 56,907 links). Offline, the generator in
// gen.go synthesizes a graph with the same structural properties at any
// scale.
package asgraph

import (
	"fmt"
	"sort"
)

// ASN identifies an Autonomous System.
type ASN uint32

// Relationship is the commercial relationship of an AS-AS edge, seen from
// the edge's local side.
type Relationship int8

// Relationship values. Following the Uber style guide, the enum starts at 1
// so the zero value is detectably invalid.
const (
	// RelC2P: the local AS is a customer of the neighbor (uphill edge).
	RelC2P Relationship = iota + 1
	// RelP2C: the local AS is a provider of the neighbor (downhill edge).
	RelP2C
	// RelP2P: the two ASes are settlement-free peers.
	RelP2P
	// RelS2S: the two ASes are siblings (same organization); traffic flows
	// freely in both directions.
	RelS2S
)

// String returns the conventional abbreviation for the relationship.
func (r Relationship) String() string {
	switch r {
	case RelC2P:
		return "c2p"
	case RelP2C:
		return "p2c"
	case RelP2P:
		return "p2p"
	case RelS2S:
		return "s2s"
	default:
		return fmt.Sprintf("rel(%d)", int8(r))
	}
}

// Invert returns the relationship as seen from the other end of the edge.
func (r Relationship) Invert() Relationship {
	switch r {
	case RelC2P:
		return RelP2C
	case RelP2C:
		return RelC2P
	default:
		return r
	}
}

// Edge is a directed half-edge of the annotated AS graph.
type Edge struct {
	To  ASN
	Rel Relationship
}

// Tier classifies an AS's position in the Internet hierarchy. The generator
// assigns tiers; inference code never depends on them.
type Tier int8

// Tier values.
const (
	// TierT1 is a transit-free backbone AS (member of the tier-1 clique).
	TierT1 Tier = iota + 1
	// TierTransit is a regional/national transit provider.
	TierTransit
	// TierStub is an edge AS originating prefixes but transiting nothing.
	TierStub
)

// String returns a short tier label.
func (t Tier) String() string {
	switch t {
	case TierT1:
		return "tier1"
	case TierTransit:
		return "transit"
	case TierStub:
		return "stub"
	default:
		return fmt.Sprintf("tier(%d)", int8(t))
	}
}

// Node is one AS in the graph.
type Node struct {
	ASN  ASN
	Tier Tier
	// X, Y are the AS's synthetic geographic coordinates in kilometers on a
	// flat map; the latency model derives propagation delay from them.
	X, Y float64
}

// Graph is an annotated AS-level topology. It is immutable after Build and
// therefore safe for concurrent readers.
//
// Nodes live in one dense index space [0, NumNodes), ascending by ASN, and
// the adjacency is one compressed sparse row: node i's half-edges are
// edges[off[i]:off[i+1]], sorted by neighbour (index order is ASN order).
// Half-edges are numbered by that flat position, so walking ASNs() and each
// Edges(asn) in order visits half-edge 0, 1, 2, ... — the numbering
// RouteTable.Step reports and per-link tables (netmodel's delays) index.
type Graph struct {
	nodes []Node // nodes[i] is the AS at index i
	asns  []ASN  // asns[i] == nodes[i].ASN, for callers that want the list
	// idx maps each ASN to its dense index.
	idx   map[ASN]int32
	off   []int32 // len NumNodes+1
	edges []Edge
	// nbr[k] is the dense index of edges[k].To; rev[k] is the half-edge
	// that runs back along the same link.
	nbr []int32
	rev []int32
}

// Builder accumulates nodes and edges and produces an immutable Graph.
type Builder struct {
	nodes map[ASN]*Node
	adj   map[ASN][]Edge
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder {
	return &Builder{
		nodes: make(map[ASN]*Node),
		adj:   make(map[ASN][]Edge),
	}
}

// AddNode inserts an AS. Re-adding an existing ASN overwrites its metadata
// but keeps its edges.
func (b *Builder) AddNode(n Node) {
	cp := n
	b.nodes[n.ASN] = &cp
}

// AddEdge inserts the edge a->b with relationship rel (as seen from a) and
// the reverse half-edge b->a with the inverted relationship. Unknown
// endpoints are created as stub nodes. Duplicate edges are ignored.
func (b *Builder) AddEdge(a, c ASN, rel Relationship) {
	if a == c {
		return
	}
	if _, ok := b.nodes[a]; !ok {
		b.AddNode(Node{ASN: a, Tier: TierStub})
	}
	if _, ok := b.nodes[c]; !ok {
		b.AddNode(Node{ASN: c, Tier: TierStub})
	}
	for _, e := range b.adj[a] {
		if e.To == c {
			return
		}
	}
	b.adj[a] = append(b.adj[a], Edge{To: c, Rel: rel})
	b.adj[c] = append(b.adj[c], Edge{To: a, Rel: rel.Invert()})
}

// Build freezes the builder into an immutable Graph. The builder must not
// be used afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.nodes)
	g := &Graph{
		nodes: make([]Node, 0, n),
		asns:  make([]ASN, 0, n),
		idx:   make(map[ASN]int32, n),
		off:   make([]int32, 1, n+1),
	}
	for asn := range b.nodes {
		g.asns = append(g.asns, asn)
	}
	sort.Slice(g.asns, func(i, j int) bool { return g.asns[i] < g.asns[j] })
	half := 0
	for i, asn := range g.asns {
		g.idx[asn] = int32(i)
		g.nodes = append(g.nodes, *b.nodes[asn])
		half += len(b.adj[asn])
	}
	g.edges = make([]Edge, 0, half)
	g.nbr = make([]int32, 0, half)
	for _, asn := range g.asns {
		es := b.adj[asn]
		sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
		for _, e := range es {
			g.edges = append(g.edges, e)
			g.nbr = append(g.nbr, g.idx[e.To])
		}
		g.off = append(g.off, int32(len(g.edges)))
	}
	g.rev = make([]int32, half)
	for u := range g.asns {
		for k := g.off[u]; k < g.off[u+1]; k++ {
			v := g.nbr[k]
			run := g.nbr[g.off[v]:g.off[v+1]]
			j := sort.Search(len(run), func(j int) bool { return run[j] >= int32(u) })
			g.rev[k] = g.off[v] + int32(j)
		}
	}
	b.nodes = nil
	b.adj = nil
	return g
}

// NumNodes returns the number of ASes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of undirected AS links.
func (g *Graph) NumEdges() int { return len(g.edges) / 2 }

// Node returns the AS with the given number, or nil if absent.
func (g *Graph) Node(asn ASN) *Node {
	i, ok := g.idx[asn]
	if !ok {
		return nil
	}
	return &g.nodes[i]
}

// Has reports whether the graph contains asn.
func (g *Graph) Has(asn ASN) bool {
	_, ok := g.idx[asn]
	return ok
}

// Edges returns the adjacency list of asn, sorted by neighbour ASN.
// Callers must not mutate it.
func (g *Graph) Edges(asn ASN) []Edge {
	i, ok := g.idx[asn]
	if !ok {
		return nil
	}
	return g.edges[g.off[i]:g.off[i+1]:g.off[i+1]]
}

// Degree returns the number of neighbors of asn.
func (g *Graph) Degree(asn ASN) int { return len(g.Edges(asn)) }

// ASNs returns all AS numbers in ascending order. Callers must not mutate
// the returned slice.
func (g *Graph) ASNs() []ASN { return g.asns }

// Index returns the dense index of asn in [0, NumNodes) and whether the AS
// exists. Indexes are stable for the life of the graph.
func (g *Graph) Index(asn ASN) (int32, bool) {
	i, ok := g.idx[asn]
	return i, ok
}

// ByIndex returns the ASN at dense index i. It panics if i is out of range.
func (g *Graph) ByIndex(i int32) ASN { return g.asns[i] }

// Rel returns the relationship of edge a->b and whether the edge exists.
func (g *Graph) Rel(a, b ASN) (Relationship, bool) {
	for _, e := range g.Edges(a) {
		if e.To == b {
			return e.Rel, true
		}
	}
	return 0, false
}

// TopDegreeASNs returns the n ASes with the largest degree, ties broken by
// ascending ASN. The evaluation uses this to place DEDI's dedicated relay
// nodes "in 80 clusters with the largest connection degrees".
func (g *Graph) TopDegreeASNs(n int) []ASN {
	all := make([]ASN, len(g.asns))
	copy(all, g.asns)
	sort.Slice(all, func(i, j int) bool {
		di, dj := g.Degree(all[i]), g.Degree(all[j])
		if di != dj {
			return di > dj
		}
		return all[i] < all[j]
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
