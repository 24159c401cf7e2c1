package bgp

import "asap/internal/asgraph"

// RIBEntry is one row of a BGP routing table dump: a prefix and the AS
// path a vantage point observed toward its origin, exactly the shape of a
// RouteViews table entry the paper consumed.
type RIBEntry struct {
	Prefix Prefix
	// Path runs from the vantage AS to the origin AS, inclusive.
	Path []asgraph.ASN
}

// Origin returns the path's final AS.
func (e RIBEntry) Origin() asgraph.ASN {
	return e.Path[len(e.Path)-1]
}

// SynthesizeRIB produces the routing-table view of each vantage AS over
// the allocated prefixes, using policy routing over the ground-truth
// graph. This is the offline stand-in for downloading RouteViews, RIPE
// RIS, and CERNET dumps. Unreachable prefixes are skipped, like a real
// collector's partial view.
func SynthesizeRIB(r *asgraph.Router, alloc *Allocation, vantages []asgraph.ASN) []RIBEntry {
	var out []RIBEntry
	for _, v := range vantages {
		for i, p := range alloc.Prefixes {
			origin := alloc.Origin[i]
			if v == origin {
				out = append(out, RIBEntry{Prefix: p, Path: []asgraph.ASN{v}})
				continue
			}
			path, ok := r.Path(v, origin)
			if !ok {
				continue
			}
			out = append(out, RIBEntry{Prefix: p, Path: path})
		}
	}
	return out
}

// Paths extracts the AS paths of a RIB dump, the input shape Gao's
// inference algorithm wants.
func Paths(entries []RIBEntry) [][]asgraph.ASN {
	out := make([][]asgraph.ASN, 0, len(entries))
	for _, e := range entries {
		if len(e.Path) >= 2 {
			out = append(out, e.Path)
		}
	}
	return out
}
