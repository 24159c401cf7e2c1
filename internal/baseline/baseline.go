// Package baseline implements the relay-selection methods ASAP is
// evaluated against in Section 7.1:
//
//   - DEDI ("RON-like"): a fixed set of dedicated relay nodes placed in
//     the clusters with the largest AS connection degrees; every session
//     probes all of them.
//   - RAND ("SOSR-like"): every session probes a fixed number of
//     uniformly random peer nodes.
//   - MIX: a combination — some dedicated nodes plus some random probes.
//
// Each method probes candidate one-hop relay paths and returns what it
// found; the evaluation scores the findings against ground truth.
package baseline

import (
	"fmt"
	"time"

	"asap/internal/cluster"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Candidate is one probed one-hop relay path.
type Candidate struct {
	Relay cluster.HostID
	// EstRTT is the measured (noisy) relay-path RTT.
	EstRTT time.Duration
}

// Result is the outcome of a baseline selection for one session.
type Result struct {
	Candidates []Candidate
	// Messages is the probe-message cost of the selection.
	Messages int64
}

// Selector is a relay-selection method under evaluation.
type Selector interface {
	// Name returns the method's label as used in the paper's figures.
	Name() string
	// Select probes relay candidates for the session h1 -> h2. A non-nil
	// rng makes the selection draw all its randomness (probe noise,
	// random candidate sampling) from that private stream, so sessions
	// can be evaluated concurrently and still reproduce the serial
	// output; nil falls back to the selector's shared streams.
	Select(h1, h2 cluster.HostID, rng *sim.RNG) (*Result, error)
}

// probeRelay measures a one-hop relay path h1 -> r -> h2 with two
// host-RTT probes, as a RON/SOSR node would.
func probeRelay(p *netmodel.Prober, h1, r, h2 cluster.HostID) (time.Duration, bool) {
	a, ok1 := p.HostRTT(h1, r)
	b, ok2 := p.HostRTT(r, h2)
	if !ok1 || !ok2 {
		return 0, false
	}
	return a + b + overlay.RelayRTT, true
}

// Dedi is the DEDI method: dedicated relay nodes in the highest-degree
// clusters ("DEDI probes 80 nodes in 80 clusters with the largest
// connection degrees").
type Dedi struct {
	name   string
	prober *netmodel.Prober
	nodes  []cluster.HostID
}

// NewDedi places n dedicated nodes. Dedicated nodes are the surrogate-
// grade hosts of the n populated clusters whose ASes have the largest
// degree.
func NewDedi(pop *cluster.Population, m *netmodel.Model, prober *netmodel.Prober, n int) (*Dedi, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: DEDI needs n >= 1, got %d", n)
	}
	nodes := make([]cluster.HostID, 0, n)
	seen := make(map[cluster.ClusterID]bool)
	for _, asn := range m.Graph().TopDegreeASNs(m.Graph().NumNodes()) {
		for _, cid := range pop.ClustersInAS(asn) {
			if seen[cid] {
				continue
			}
			seen[cid] = true
			nodes = append(nodes, pop.Cluster(cid).Delegate)
			if len(nodes) == n {
				return &Dedi{name: "DEDI", prober: prober, nodes: nodes}, nil
			}
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("baseline: no populated clusters for DEDI")
	}
	return &Dedi{name: "DEDI", prober: prober, nodes: nodes}, nil
}

// Name implements Selector.
func (d *Dedi) Name() string { return d.name }

// Select implements Selector: probe every dedicated node.
func (d *Dedi) Select(h1, h2 cluster.HostID, rng *sim.RNG) (*Result, error) {
	ctr := sim.NewCounters()
	p := d.prober
	if rng != nil {
		p = p.WithRNG(rng)
	}
	p = p.WithCounters(ctr)
	res := &Result{}
	for _, r := range d.nodes {
		if r == h1 || r == h2 {
			continue
		}
		if rtt, ok := probeRelay(p, h1, r, h2); ok {
			res.Candidates = append(res.Candidates, Candidate{Relay: r, EstRTT: rtt})
		}
	}
	res.Messages = ctr.Total()
	return res, nil
}

// Rand is the RAND method: probe n uniformly random peers ("RAND randomly
// selects 200 nodes").
type Rand struct {
	name   string
	pop    *cluster.Population
	prober *netmodel.Prober
	rng    *sim.RNG
	n      int
}

// NewRand builds a RAND selector probing n random peers per session.
func NewRand(pop *cluster.Population, prober *netmodel.Prober, rng *sim.RNG, n int) (*Rand, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: RAND needs n >= 1, got %d", n)
	}
	return &Rand{name: "RAND", pop: pop, prober: prober, rng: rng, n: n}, nil
}

// Name implements Selector.
func (r *Rand) Name() string { return r.name }

// Select implements Selector: probe n random peers. With a non-nil rng
// both the candidate sample and the probe noise come from it.
func (r *Rand) Select(h1, h2 cluster.HostID, rng *sim.RNG) (*Result, error) {
	ctr := sim.NewCounters()
	p := r.prober
	sampler := r.rng
	if rng != nil {
		p = p.WithRNG(rng)
		sampler = rng
	}
	p = p.WithCounters(ctr)
	res := &Result{}
	for _, i := range sampler.Sample(r.pop.NumHosts(), r.n) {
		relay := cluster.HostID(i)
		if relay == h1 || relay == h2 {
			continue
		}
		if rtt, ok := probeRelay(p, h1, relay, h2); ok {
			res.Candidates = append(res.Candidates, Candidate{Relay: relay, EstRTT: rtt})
		}
	}
	res.Messages = ctr.Total()
	return res, nil
}

// Mix combines DEDI and RAND ("MIX probes 160 nodes, including 40
// dedicated nodes and 120 randomly probed nodes").
type Mix struct {
	dedi *Dedi
	rand *Rand
}

// NewMix builds a MIX selector from nDedi dedicated and nRand random
// probes.
func NewMix(pop *cluster.Population, m *netmodel.Model, prober *netmodel.Prober, rng *sim.RNG, nDedi, nRand int) (*Mix, error) {
	d, err := NewDedi(pop, m, prober, nDedi)
	if err != nil {
		return nil, err
	}
	r, err := NewRand(pop, prober, rng, nRand)
	if err != nil {
		return nil, err
	}
	return &Mix{dedi: d, rand: r}, nil
}

// Name implements Selector.
func (m *Mix) Name() string { return "MIX" }

// Select implements Selector. The dedicated and the random halves draw
// from the same rng in a fixed order, so one sub-seeded stream per
// session reproduces the whole MIX selection.
func (m *Mix) Select(h1, h2 cluster.HostID, rng *sim.RNG) (*Result, error) {
	rd, err := m.dedi.Select(h1, h2, rng)
	if err != nil {
		return nil, err
	}
	rr, err := m.rand.Select(h1, h2, rng)
	if err != nil {
		return nil, err
	}
	return &Result{
		Candidates: append(rd.Candidates, rr.Candidates...),
		Messages:   rd.Messages + rr.Messages,
	}, nil
}

// Interface compliance checks.
var (
	_ Selector = (*Dedi)(nil)
	_ Selector = (*Rand)(nil)
	_ Selector = (*Mix)(nil)
)
