package asgraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text serialization of annotated AS graphs, in the spirit of the CAIDA
// AS-relationship files the measurement community exchanges. Bootstraps
// persist and disseminate the graph in this format; cmd/asgen can write
// it and cmd/asapd could load it.
//
// Format (line-oriented, '#' comments allowed):
//
//	node <asn> <tier> <x> <y>
//	edge <asn1> <asn2> <rel>     # rel as seen from asn1: c2p|p2c|p2p|s2s
//
// Each undirected link appears exactly once.

// Encode serializes the graph. Nodes come first, ASN-ascending, then
// edges from the lower ASN's perspective.
func (g *Graph) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# asap asgraph: %d nodes, %d links\n", g.NumNodes(), g.NumEdges())
	for _, n := range g.nodes {
		fmt.Fprintf(bw, "node %d %s %g %g\n", n.ASN, n.Tier, n.X, n.Y)
	}
	for _, asn := range g.asns {
		for _, e := range g.Edges(asn) {
			if e.To < asn {
				continue // emit each link once, from the smaller ASN
			}
			fmt.Fprintf(bw, "edge %d %d %s\n", asn, e.To, e.Rel)
		}
	}
	return bw.Flush()
}

func parseTier(s string) (Tier, error) {
	switch s {
	case "tier1":
		return TierT1, nil
	case "transit":
		return TierTransit, nil
	case "stub":
		return TierStub, nil
	default:
		return 0, fmt.Errorf("asgraph: unknown tier %q", s)
	}
}

func parseRel(s string) (Relationship, error) {
	switch s {
	case "c2p":
		return RelC2P, nil
	case "p2c":
		return RelP2C, nil
	case "p2p":
		return RelP2P, nil
	case "s2s":
		return RelS2S, nil
	default:
		return 0, fmt.Errorf("asgraph: unknown relationship %q", s)
	}
}

// Read parses a serialized graph.
func Read(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 5 {
				return nil, fmt.Errorf("asgraph: line %d: node wants 4 args", lineNo)
			}
			asn, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("asgraph: line %d: bad ASN: %w", lineNo, err)
			}
			tier, err := parseTier(fields[2])
			if err != nil {
				return nil, fmt.Errorf("asgraph: line %d: %w", lineNo, err)
			}
			x, err1 := strconv.ParseFloat(fields[3], 64)
			y, err2 := strconv.ParseFloat(fields[4], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("asgraph: line %d: bad coordinates", lineNo)
			}
			b.AddNode(Node{ASN: ASN(asn), Tier: tier, X: x, Y: y})
		case "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("asgraph: line %d: edge wants 3 args", lineNo)
			}
			a, err1 := strconv.ParseUint(fields[1], 10, 32)
			c, err2 := strconv.ParseUint(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("asgraph: line %d: bad ASN", lineNo)
			}
			rel, err := parseRel(fields[3])
			if err != nil {
				return nil, fmt.Errorf("asgraph: line %d: %w", lineNo, err)
			}
			b.AddEdge(ASN(a), ASN(c), rel)
		default:
			return nil, fmt.Errorf("asgraph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("asgraph: read: %w", err)
	}
	return b.Build(), nil
}
