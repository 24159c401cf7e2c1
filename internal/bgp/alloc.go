package bgp

import (
	"fmt"
	"slices"

	"asap/internal/asgraph"
	"asap/internal/sim"
)

// Allocation assigns IP prefixes to origin ASes, standing in for the
// Internet's address-registry state that the 2005 BGP dumps reflected.
// ASes may originate multiple prefixes ("Note that an AS can have multiple
// IP prefixes", Section 6.1).
type Allocation struct {
	// Prefixes lists every allocated prefix in address order.
	Prefixes []Prefix
	// Origin[i] is the AS originating Prefixes[i].
	Origin []asgraph.ASN
}

// AllocConfig controls synthetic prefix allocation.
type AllocConfig struct {
	// PrefixesPerStub is the mean number of prefixes a stub AS originates.
	PrefixesPerStub float64
	// PrefixesPerTransit is the mean for transit ASes (typically higher).
	PrefixesPerTransit float64
	// MinLen and MaxLen bound prefix lengths (e.g. 16..24).
	MinLen, MaxLen uint8
}

// DefaultAllocConfig mirrors measured prefix-per-AS ratios: the paper's
// table had 7,171 prefixes over 1,461 ASes (~4.9 per AS with hosts).
func DefaultAllocConfig() AllocConfig {
	return AllocConfig{
		PrefixesPerStub:    1.5,
		PrefixesPerTransit: 6,
		MinLen:             16,
		MaxLen:             24,
	}
}

// Allocate assigns prefixes to every AS in g. Prefixes are carved from
// 10.0.0.0/8-style sequential space and never overlap.
func Allocate(g *asgraph.Graph, cfg AllocConfig, rng *sim.RNG) (*Allocation, error) {
	if cfg.MinLen < 8 || cfg.MaxLen > 30 || cfg.MinLen > cfg.MaxLen {
		return nil, fmt.Errorf("bgp: invalid prefix length bounds [%d,%d]", cfg.MinLen, cfg.MaxLen)
	}
	if cfg.PrefixesPerStub <= 0 || cfg.PrefixesPerTransit <= 0 {
		return nil, fmt.Errorf("bgp: prefix counts must be positive")
	}
	a := &Allocation{}
	// Sequential carving: allocate each prefix at the next aligned
	// address. Alignment to its own size guarantees non-overlap.
	next := uint64(0x0A000000) // 10.0.0.0
	carve := func(length uint8) (Prefix, error) {
		size := uint64(1) << (32 - length)
		// Round up to alignment.
		next = (next + size - 1) &^ (size - 1)
		if next+size > 1<<32 {
			return Prefix{}, fmt.Errorf("bgp: address space exhausted")
		}
		p := MakePrefix(Addr(next), length)
		next += size
		return p, nil
	}

	for _, asn := range g.ASNs() {
		node := g.Node(asn)
		mean := cfg.PrefixesPerStub
		if node.Tier != asgraph.TierStub {
			mean = cfg.PrefixesPerTransit
		}
		n := 1 + int(rng.Exponential(mean-1)+0.5)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			length := cfg.MinLen + uint8(rng.Intn(int(cfg.MaxLen-cfg.MinLen)+1))
			p, err := carve(length)
			if err != nil {
				return nil, err
			}
			a.Prefixes = append(a.Prefixes, p)
			a.Origin = append(a.Origin, asn)
		}
	}
	return a, nil
}

// NumPrefixes returns the number of allocated prefixes.
func (a *Allocation) NumPrefixes() int { return len(a.Prefixes) }

// ASes returns every AS that originates at least one prefix, ascending.
func (a *Allocation) ASes() []asgraph.ASN {
	out := slices.Clone(a.Origin)
	slices.Sort(out)
	return slices.Compact(out)
}
