package asgraph

import (
	"fmt"
	"math"

	"asap/internal/sim"
)

// The generator's calibration against the 2005 RouteViews graph
// (DESIGN.md §2).
const (
	// multiHomeProb is the probability that a stub AS is multi-homed to a
	// second (and with prob/2 a third) provider.
	multiHomeProb float64 = 0.5
	// transitPeerProb is the probability that a transit AS establishes a
	// peer link with another transit AS of similar degree.
	transitPeerProb float64 = 0.35
	// siblingProb is the probability a stub AS has a sibling AS link.
	siblingProb float64 = 0.02
	// mapSizeKm is the side length of the square world map in kilometers.
	// Coordinates feed the propagation-delay model.
	mapSizeKm float64 = 4500
	// regions is the number of geographic regions (continent analogues).
	// Tier-1 ASes span regions; lower tiers cluster within one.
	regions = 5
)

// GenConfig sizes the synthetic tiered topology generator.
//
// The generator reproduces the structural properties of the 2005 measured
// graph that ASAP depends on:
//
//   - a small transit-free tier-1 clique interconnected by peer links;
//   - transit ASes attaching to 1-2 providers by preferential attachment
//     (yielding a power-law degree distribution);
//   - stub ASes, a fraction of which are multi-homed to two or more
//     providers — these create the overlay shortcuts of Figure 4;
//   - occasional peer links between transit ASes of similar degree;
//   - sibling links between a small number of AS pairs.
type GenConfig struct {
	// NumT1 is the tier-1 clique size (the 2005 Internet had ~10).
	NumT1 int
	// NumTransit is the number of transit (middle-tier) ASes.
	NumTransit int
	// NumStub is the number of stub (edge) ASes.
	NumStub int
}

// Validate reports whether the configuration is usable.
func (c GenConfig) Validate() error {
	switch {
	case c.NumT1 < 1:
		return fmt.Errorf("asgraph: NumT1 must be >= 1, got %d", c.NumT1)
	case c.NumTransit < 1:
		return fmt.Errorf("asgraph: NumTransit must be >= 1, got %d", c.NumTransit)
	case c.NumStub < 0:
		return fmt.Errorf("asgraph: NumStub must be >= 0, got %d", c.NumStub)
	}
	return nil
}

// DefaultGenConfig returns a configuration producing a graph of roughly
// total ASes, split across tiers in measured-Internet proportions
// (~0.05% tier-1, ~15% transit, rest stubs).
func DefaultGenConfig(total int) GenConfig {
	if total < 20 {
		total = 20
	}
	t1 := total / 2000
	if t1 < 8 {
		t1 = 8
	}
	transit := total * 15 / 100
	if transit < 4 {
		transit = 4
	}
	stub := total - t1 - transit
	if stub < 0 {
		stub = 0
	}
	return GenConfig{NumT1: t1, NumTransit: transit, NumStub: stub}
}

// Generate synthesizes an annotated AS graph. The same seed always produces
// the same graph.
func Generate(cfg GenConfig, rng *sim.RNG) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := NewBuilder()

	// Region centers, spread over the map. Region 0 is the map center;
	// others ring around it, standing in for continents.
	type point struct{ x, y float64 }
	centers := make([]point, regions)
	for i := range centers {
		if i == 0 {
			centers[i] = point{mapSizeKm / 2, mapSizeKm / 2}
			continue
		}
		ang := 2 * math.Pi * float64(i-1) / float64(regions-1)
		r := mapSizeKm * 0.38
		centers[i] = point{
			x: mapSizeKm/2 + r*math.Cos(ang),
			y: mapSizeKm/2 + r*math.Sin(ang),
		}
	}
	regionOf := make(map[ASN]int)
	place := func(region int, spreadKm float64) (float64, float64) {
		c := centers[region]
		return c.x + rng.Normal(0, spreadKm), c.y + rng.Normal(0, spreadKm)
	}

	next := ASN(1)
	newNode := func(tier Tier, region int, spread float64) ASN {
		asn := next
		next++
		x, y := place(region, spread)
		b.AddNode(Node{ASN: asn, Tier: tier, X: x, Y: y})
		regionOf[asn] = region
		return asn
	}

	// Tier-1 clique: every pair peers.
	t1s := make([]ASN, 0, cfg.NumT1)
	for i := 0; i < cfg.NumT1; i++ {
		t1s = append(t1s, newNode(TierT1, i%regions, mapSizeKm*0.1))
	}
	for i := 0; i < len(t1s); i++ {
		for j := i + 1; j < len(t1s); j++ {
			b.AddEdge(t1s[i], t1s[j], RelP2P)
		}
	}

	// Transit ASes: preferential attachment to existing providers
	// (tier-1 or earlier transit). Track degree for attachment weights.
	providers := make([]ASN, 0, cfg.NumT1+cfg.NumTransit)
	weights := make([]int, 0, cap(providers))
	providers = append(providers, t1s...)
	for range t1s {
		weights = append(weights, cfg.NumT1) // clique degree
	}
	pick := func() int {
		total := 0
		for _, w := range weights {
			total += w
		}
		t := rng.Intn(total)
		for i, w := range weights {
			t -= w
			if t < 0 {
				return i
			}
		}
		return len(weights) - 1
	}
	transits := make([]ASN, 0, cfg.NumTransit)
	for i := 0; i < cfg.NumTransit; i++ {
		region := rng.Intn(regions)
		asn := newNode(TierTransit, region, mapSizeKm*0.06)
		// Attach to 1-2 providers.
		nProv := 1
		if rng.Bool(0.5) {
			nProv = 2
		}
		for p := 0; p < nProv; p++ {
			pi := pick()
			b.AddEdge(asn, providers[pi], RelC2P)
			weights[pi]++
		}
		providers = append(providers, asn)
		weights = append(weights, nProv)
		transits = append(transits, asn)
	}

	// Peer links between transits of similar degree, biased to same region.
	for i, a := range transits {
		if !rng.Bool(transitPeerProb) {
			continue
		}
		j := rng.Intn(len(transits))
		if j == i {
			continue
		}
		c := transits[j]
		if regionOf[a] == regionOf[c] || rng.Bool(0.3) {
			b.AddEdge(a, c, RelP2P)
		}
	}

	// Stub ASes: attach to providers with preferential attachment, biased
	// toward same-region transits. A multiHomeProb fraction multi-home.
	transitByRegion := make([][]ASN, regions)
	for _, t := range transits {
		r := regionOf[t]
		transitByRegion[r] = append(transitByRegion[r], t)
	}
	for i := 0; i < cfg.NumStub; i++ {
		region := rng.Intn(regions)
		asn := newNode(TierStub, region, mapSizeKm*0.05)
		local := transitByRegion[region]
		pickProvider := func() ASN {
			// 80%: a same-region transit (weighted by nothing — regional
			// transit markets are small); 20%: global preferential pick.
			if len(local) > 0 && rng.Bool(0.8) {
				return local[rng.Intn(len(local))]
			}
			return providers[pick()]
		}
		p1 := pickProvider()
		b.AddEdge(asn, p1, RelC2P)
		if rng.Bool(multiHomeProb) {
			p2 := pickProvider()
			if p2 != p1 {
				b.AddEdge(asn, p2, RelC2P)
			}
			if rng.Bool(multiHomeProb / 2) {
				p3 := pickProvider()
				if p3 != p1 && p3 != p2 {
					b.AddEdge(asn, p3, RelC2P)
				}
			}
		}
		if rng.Bool(siblingProb) {
			sib := newNode(TierStub, region, mapSizeKm*0.05)
			b.AddEdge(asn, sib, RelS2S)
			// The sibling still needs a provider of its own so it is not
			// reachable only through its twin.
			b.AddEdge(sib, pickProvider(), RelC2P)
		}
	}

	return b.Build(), nil
}
