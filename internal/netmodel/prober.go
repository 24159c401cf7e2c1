package netmodel

import (
	"fmt"
	"sync"
	"time"

	"asap/internal/cluster"
	"asap/internal/sim"
)

// proberRNG serializes draws from one sim.RNG stream so a Prober (and all
// its WithCounters views, which share the stream) is safe for concurrent
// callers. Concurrent callers still interleave nondeterministically on a
// shared stream; callers that need reproducible parallel measurements
// derive a private stream per unit of work with WithRNG. A probe round
// takes mu once and draws from rng directly.
type proberRNG struct {
	mu  sync.Mutex
	rng *sim.RNG
}

func (p *proberRNG) Bool(prob float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Bool(prob)
}

// Prober is the measurement interface protocol actors are allowed to use.
// It models the paper's tooling: King for host-pair RTT estimation
// (DNS-based, noisy, with non-responses) and ping for loss sampling. Every
// measurement increments message counters, which the evaluation charges to
// the selection method (Figure 18).
//
// A Prober is safe for concurrent callers: counters are internally
// synchronized and noise draws are serialized on the underlying stream.
// For deterministic parallel measurement, derive per-work-unit probers
// with WithRNG.
type Prober struct {
	m *Model
	// NoiseFrac is the relative RTT measurement error (King reports ~10%
	// typical error against direct measurement).
	NoiseFrac float64
	// ResponseProb is the probability a measurement succeeds; the paper's
	// King campaign resolved 1,498,749 of 2,130,140 pairs (~70%).
	ResponseProb float64
	// MessagesPerProbe is the message cost charged per measurement
	// (a King estimate costs a pair of recursive DNS queries).
	MessagesPerProbe int64

	rng      *proberRNG
	counters *sim.Counters
}

// ProberConfig configures a Prober.
type ProberConfig struct {
	NoiseFrac        float64
	ResponseProb     float64
	MessagesPerProbe int64
}

// DefaultProberConfig mirrors the paper's measured King behaviour.
func DefaultProberConfig() ProberConfig {
	return ProberConfig{
		NoiseFrac:        0.08,
		ResponseProb:     0.98,
		MessagesPerProbe: 2,
	}
}

// NewProber builds a Prober over the ground-truth model. counters may be
// nil when accounting is not needed.
func NewProber(m *Model, cfg ProberConfig, rng *sim.RNG, counters *sim.Counters) (*Prober, error) {
	if cfg.NoiseFrac < 0 || cfg.NoiseFrac >= 1 {
		return nil, fmt.Errorf("netmodel: NoiseFrac must be in [0,1), got %g", cfg.NoiseFrac)
	}
	if cfg.ResponseProb <= 0 || cfg.ResponseProb > 1 {
		return nil, fmt.Errorf("netmodel: ResponseProb must be in (0,1], got %g", cfg.ResponseProb)
	}
	if cfg.MessagesPerProbe < 1 {
		return nil, fmt.Errorf("netmodel: MessagesPerProbe must be >= 1, got %d", cfg.MessagesPerProbe)
	}
	if counters == nil {
		counters = sim.NewCounters()
	}
	return &Prober{
		m:                m,
		NoiseFrac:        cfg.NoiseFrac,
		ResponseProb:     cfg.ResponseProb,
		MessagesPerProbe: cfg.MessagesPerProbe,
		rng:              &proberRNG{rng: rng},
		counters:         counters,
	}, nil
}

// Counters exposes the prober's message accounting.
func (p *Prober) Counters() *sim.Counters { return p.counters }

// WithCounters returns a prober sharing this one's model, noise model and
// random stream but charging messages to ctr — used to attribute probe
// cost to a session or surrogate; a nil ctr discards the charge, for a
// caller that accounts for its probe itself.
func (p *Prober) WithCounters(ctr *sim.Counters) *Prober {
	cp := *p
	cp.counters = ctr
	return &cp
}

// WithRNG returns a prober sharing this one's model, noise model and
// counters but drawing noise from a private stream seeded by rng. Parallel
// workers give each unit of work its own sub-seeded stream (sim.SubSeed)
// so measurement noise is independent of scheduling order.
func (p *Prober) WithRNG(rng *sim.RNG) *Prober {
	cp := *p
	cp.rng = &proberRNG{rng: rng}
	return &cp
}

// noisy applies one draw of measurement noise from the prober's stream.
func (p *Prober) noisy(rtt time.Duration) time.Duration {
	p.rng.mu.Lock()
	defer p.rng.mu.Unlock()
	return p.noisyFrom(p.rng.rng, rtt)
}

// noisyFrom applies one draw of measurement noise from g, whose lock the
// caller holds.
func (p *Prober) noisyFrom(g *sim.RNG, rtt time.Duration) time.Duration {
	if p.NoiseFrac == 0 {
		return rtt
	}
	f := 1 + g.Normal(0, p.NoiseFrac)
	if f < 0.1 {
		f = 0.1
	}
	return time.Duration(float64(rtt) * f)
}

// HostRTT measures the RTT between two hosts. ok is false when the
// measurement got no response (the probe is still charged).
func (p *Prober) HostRTT(a, b cluster.HostID) (time.Duration, bool) {
	p.counters.Add("probe.host_rtt", p.MessagesPerProbe)
	if !p.rng.Bool(p.ResponseProb) {
		return 0, false
	}
	rtt, ok := p.m.HostRTT(a, b)
	if !ok {
		return 0, false
	}
	return p.noisy(rtt), true
}

// ClusterProbe is one result of a batched close-set measurement round:
// the RTT measurement toward one target and, when the RTT came back
// under the round's latency threshold, the follow-up loss sample.
type ClusterProbe struct {
	RTT    time.Duration
	RTTOK  bool
	Loss   float64
	LossOK bool
}

// ProbeClusterSet measures owner→targets[i] RTT for every target, and
// loss for the targets whose measured RTT landed under latT — the
// close-set construction pattern (Fig. 9): a cluster too far away is
// never worth a loss train. The per-target draw order — response Bool,
// noise Normal, then the conditional loss-response Bool — is the
// sequence a per-target RTT probe followed by a loss probe would consume
// (the reference in batch_test.go pins it); the round takes the stream's
// lock once for all of them. Message counters are charged in two bulk
// adds. Ground truth comes straight from the route walk and stays out of
// the model's pair cache: the close set this round builds is itself the
// cache of these pairs. Ground truth is a function of the AS pair, so
// consecutive targets in one AS share one walk; a round of one AS's
// clusters walks once. out must be at least len(targets) long.
func (p *Prober) ProbeClusterSet(owner cluster.ClusterID, targets []cluster.ClusterID, latT time.Duration, out []ClusterProbe) {
	var (
		nLoss int64
		st    PairStat
		runAS = int32(-1) // the AS whose walk st holds; -1 for none
	)
	p.rng.mu.Lock()
	g := p.rng.rng
	for i, t := range targets {
		if ai := p.m.clusterAS[t]; t == owner || ai != runAS {
			st = p.m.clusterStatsUncached(owner, t)
			runAS = ai
			if t == owner {
				runAS = -1 // the owner measures itself, not its AS's path
			}
		}
		pr := ClusterProbe{}
		if g.Bool(p.ResponseProb) && st.OK {
			pr.RTT = p.noisyFrom(g, st.RTT)
			pr.RTTOK = true
		}
		if pr.RTTOK && pr.RTT < latT {
			nLoss++
			if g.Bool(p.ResponseProb) {
				pr.Loss = st.Loss
				pr.LossOK = true
			}
		}
		out[i] = pr
	}
	p.rng.mu.Unlock()
	p.counters.Add("probe.cluster_rtt", int64(len(targets))*p.MessagesPerProbe)
	if nLoss > 0 {
		p.counters.Add("probe.cluster_loss", nLoss*p.MessagesPerProbe)
	}
}
