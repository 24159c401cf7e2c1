package eval

import (
	"fmt"
	"math"
	"time"

	"asap/internal/baseline"
	"asap/internal/core"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// EvalLossRate is the fixed per-path loss rate of the MOS evaluation
// ("we assume that each path has an average packet loss rate of 0.5%",
// Section 7.2).
const EvalLossRate = 0.005

// Outcome is the scored result of one method on one session, carrying the
// four metrics of Section 7.1.
type Outcome struct {
	Method string
	// QualityPaths is the number of relay paths found that satisfy the
	// RTT requirement, in end-host units.
	QualityPaths int64
	// ShortestRTT is the ground-truth RTT of the best relay path found;
	// +Inf (as a huge duration) when the method found nothing usable.
	ShortestRTT time.Duration
	// HighestMOS is the E-Model MOS of the best path at the fixed loss.
	HighestMOS float64
	// Messages is the probe/signalling message cost of the selection.
	Messages int64
}

// noPath marks a session where a method found no relay path at all.
const noPath = time.Duration(1<<62 - 1)

// Method runs a relay selection on a session and scores it against
// ground truth. A non-nil rng gives the run a private randomness stream
// (typically sub-seeded per (method, session) pair) so sessions can be
// scored concurrently and still reproduce the serial output bit for
// bit; nil falls back to the method's shared streams.
type Method interface {
	Name() string
	Run(s Session, rng *sim.RNG) (Outcome, error)
}

// baselineMethod scores a baseline selector: every probed candidate is a
// found relay path; quality paths are those whose ground-truth RTT is
// under the threshold.
type baselineMethod struct {
	sel baseline.Selector
	eng *overlay.Engine
}

// NewBaselineMethod wraps a baseline selector as a Method.
func NewBaselineMethod(sel baseline.Selector, eng *overlay.Engine) Method {
	return &baselineMethod{sel: sel, eng: eng}
}

func (m *baselineMethod) Name() string { return m.sel.Name() }

func (m *baselineMethod) Run(s Session, rng *sim.RNG) (Outcome, error) {
	res, err := m.sel.Select(s.A, s.B, rng)
	if err != nil {
		return Outcome{}, fmt.Errorf("eval: %s: %w", m.sel.Name(), err)
	}
	out := Outcome{Method: m.sel.Name(), Messages: res.Messages, ShortestRTT: noPath}
	for _, c := range res.Candidates {
		p, ok := m.eng.OneHop(s.A, c.Relay, s.B)
		if !ok {
			continue
		}
		if p.Quality() {
			out.QualityPaths++
		}
		if p.RTT < out.ShortestRTT {
			out.ShortestRTT = p.RTT
		}
	}
	out.HighestMOS = mosOf(out.ShortestRTT)
	return out, nil
}

// asapMethod scores the ASAP protocol. Quality paths are counted in
// end-host units over the candidate clusters, exactly as the paper counts
// them ("for each ip in cluster of r add ip to OS"). The ground-truth
// shortest RTT is evaluated through the surrogates of the best candidate
// clusters.
type asapMethod struct {
	sys *core.System
	eng *overlay.Engine
	// verifyTop bounds how many top candidates are scored against ground
	// truth for the shortest-RTT metric.
	verifyTop int
}

// NewASAPMethod wraps an ASAP system as a Method.
func NewASAPMethod(sys *core.System, eng *overlay.Engine) Method {
	return &asapMethod{sys: sys, eng: eng, verifyTop: 20}
}

func (m *asapMethod) Name() string { return "ASAP" }

func (m *asapMethod) Run(s Session, rng *sim.RNG) (Outcome, error) {
	var prober *netmodel.Prober
	if rng != nil {
		prober = m.sys.Prober().WithRNG(rng)
	}
	sel, err := m.sys.SelectCloseRelayWith(s.A, s.B, prober)
	if err != nil {
		return Outcome{}, fmt.Errorf("eval: ASAP: %w", err)
	}
	out := Outcome{
		Method:       "ASAP",
		QualityPaths: sel.QualityPaths(),
		Messages:     sel.Messages,
		ShortestRTT:  noPath,
	}
	for i, oc := range sel.OneHop {
		if i >= m.verifyTop {
			break
		}
		r, ok := m.sys.Surrogate(oc.Cluster)
		if !ok {
			continue
		}
		if p, ok := m.eng.OneHop(s.A, r, s.B); ok && p.RTT < out.ShortestRTT {
			out.ShortestRTT = p.RTT
		}
	}
	for i, tc := range sel.TwoHop {
		if i >= m.verifyTop {
			break
		}
		r1, ok1 := m.sys.Surrogate(tc.First)
		r2, ok2 := m.sys.Surrogate(tc.Second)
		if !ok1 || !ok2 {
			continue
		}
		if p, ok := m.eng.TwoHop(s.A, r1, r2, s.B); ok && p.RTT < out.ShortestRTT {
			out.ShortestRTT = p.RTT
		}
	}
	out.HighestMOS = mosOf(out.ShortestRTT)
	return out, nil
}

// optMethod is the offline-optimal OPT: full knowledge, no message cost
// accounting (the paper reports no overhead for OPT).
type optMethod struct {
	eng *overlay.Engine
}

// NewOPTMethod builds the OPT reference method.
func NewOPTMethod(eng *overlay.Engine) Method {
	return &optMethod{eng: eng}
}

func (m *optMethod) Name() string { return "OPT" }

// Run ignores rng: OPT is a ground-truth sweep with no randomness.
func (m *optMethod) Run(s Session, _ *sim.RNG) (Outcome, error) {
	out := Outcome{Method: "OPT", ShortestRTT: noPath}
	if p, ok := m.eng.Optimal(s.A, s.B); ok {
		out.ShortestRTT = p.RTT
		if p.Quality() {
			out.QualityPaths = 1
		}
	}
	out.HighestMOS = mosOf(out.ShortestRTT)
	return out, nil
}

func mosOf(rtt time.Duration) float64 {
	if rtt == noPath {
		return 1
	}
	return netmodel.MOSFromRTT(rtt, EvalLossRate, netmodel.CodecG729A)
}

// ShortestRTTms converts an outcome's shortest RTT to milliseconds for
// plotting; sessions with no path become +Inf.
func (o Outcome) ShortestRTTms() float64 {
	if o.ShortestRTT == noPath {
		return math.Inf(1)
	}
	return float64(o.ShortestRTT) / float64(time.Millisecond)
}

// Interface compliance checks.
var (
	_ Method = (*baselineMethod)(nil)
	_ Method = (*asapMethod)(nil)
	_ Method = (*optMethod)(nil)
)
