package eval

import (
	"fmt"
	"time"

	"asap/internal/netmodel"
	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
)

// The stabilization experiment measures the paper's Table 4 / Figure 7(a)
// story end to end: kill the active relay mid-call and time how long
// each policy takes to get the listener's MOS back to within a tolerance
// of its pre-failure value.
//
//   - "ASAP+sessions" runs the internal/session Manager: keepalive-based
//     failure detection (bounded retries with backoff) and failover to
//     the best monitored backup.
//   - "skype-like" models the Section 5 behaviour ASAP fixes: no
//     keepalives (death is noticed only when a slow quality probe
//     fails), then random candidate exploration with
//     switch-on-first-better and no hysteresis — the relay bounce that
//     produced stabilization times up to 329 s in the study.
//
// Both arms run on the same sim clock over the same ground-truth paths,
// so the comparison is exact and deterministic.

// PathGround is one candidate voice path's ground truth.
type PathGround struct {
	Relay transport.Addr
	RTT   time.Duration
	Loss  float64
}

// StabilizationConfig parameterizes one stabilization run.
type StabilizationConfig struct {
	// Paths holds the candidate paths; Paths[0] is the initial active
	// path (the relay that will die), the rest are backups in
	// setup-estimate order.
	Paths []PathGround
	// FailAt is the virtual time the active relay dies.
	FailAt time.Duration
	// Horizon bounds the run.
	Horizon time.Duration
	// Tolerance is the MOS recovery band (default 0.2).
	Tolerance float64
	// Session tunes the ASAP arm's monitor loop.
	Session session.Config
	// BaselineProbeInterval is the Skype-like arm's quality-check
	// cadence (default 5s; without keepalives this bounds its detection
	// delay).
	BaselineProbeInterval time.Duration
	// Seed drives the baseline's random exploration.
	Seed int64
}

// DefaultStabilizationConfig returns a runnable configuration over the
// given paths.
func DefaultStabilizationConfig(paths []PathGround) StabilizationConfig {
	return StabilizationConfig{
		Paths:                 paths,
		FailAt:                20 * time.Second,
		Horizon:               5 * time.Minute,
		Tolerance:             0.2,
		Session:               session.DefaultConfig(),
		BaselineProbeInterval: 5 * time.Second,
		Seed:                  1,
	}
}

// ArmResult is one policy's measured recovery behaviour.
type ArmResult struct {
	Method string
	// PreMOS is the active-path MOS just before the failure.
	PreMOS float64
	// DetectAfter is how long past FailAt the policy first treated the
	// active path as gone (-1 = never detected within the horizon).
	DetectAfter time.Duration
	// RecoverAfter is how long past FailAt the active-path MOS returned
	// to within Tolerance of PreMOS (-1 = never within the horizon).
	RecoverAfter time.Duration
	// Switches counts path changes after the failure (failovers
	// included) — the bounce metric.
	Switches int
	// FinalMOS is the active-path MOS at the horizon.
	FinalMOS float64
}

// StabilizationResult pairs the two arms.
type StabilizationResult struct {
	ASAP     ArmResult
	Baseline ArmResult
}

// groundDriver exposes the ground-truth paths as a session.Driver; the
// active relay (Paths[0]) is unreachable from FailAt on.
type groundDriver struct {
	clk    *sim.Clock
	byAddr map[transport.Addr]PathGround
	dead   transport.Addr
	failAt time.Duration
}

func (d *groundDriver) isDead(target transport.Addr) bool {
	return target == d.dead && d.clk.Now() >= d.failAt
}

func (d *groundDriver) ProbePath(relay, callee transport.Addr) (time.Duration, float64, error) {
	if d.isDead(relay) {
		return 0, 0, fmt.Errorf("eval: relay %s unreachable", relay)
	}
	p, ok := d.byAddr[relay]
	if !ok {
		return 0, 0, fmt.Errorf("eval: unknown path via %q", relay)
	}
	return p.RTT, p.Loss, nil
}

// ProbePaths implements session.BatchDriver, so the stabilization arm
// exercises the manager's batched probe flow — the same code path a
// live core.Node drives. Ground-truth lookups cost no virtual time, so
// answering sequentially measures exactly what per-path probes would.
func (d *groundDriver) ProbePaths(reqs []session.PathRequest) []session.PathResult {
	out := make([]session.PathResult, len(reqs))
	for i, r := range reqs {
		out[i].RTT, out[i].Loss, out[i].Err = d.ProbePath(r.Relay, r.Callee)
	}
	return out
}

func (d *groundDriver) Keepalive(target transport.Addr, flowID uint64) error {
	if d.isDead(target) {
		return fmt.Errorf("eval: relay %s unreachable", target)
	}
	return nil
}

func (c StabilizationConfig) validate() error {
	if len(c.Paths) < 2 {
		return fmt.Errorf("eval: stabilization needs an active path and at least one backup")
	}
	if c.FailAt <= 0 || c.Horizon <= c.FailAt {
		return fmt.Errorf("eval: need 0 < FailAt < Horizon")
	}
	if c.Tolerance <= 0 {
		return fmt.Errorf("eval: Tolerance must be > 0")
	}
	if c.BaselineProbeInterval <= 0 {
		return fmt.Errorf("eval: BaselineProbeInterval must be > 0")
	}
	return c.Session.Validate()
}

// RunStabilization runs both arms and returns their recovery timings.
func RunStabilization(cfg StabilizationConfig) (StabilizationResult, error) {
	if err := cfg.validate(); err != nil {
		return StabilizationResult{}, err
	}
	asap, err := runSessionArm(cfg)
	if err != nil {
		return StabilizationResult{}, err
	}
	return StabilizationResult{ASAP: asap, Baseline: runBaselineArm(cfg)}, nil
}

func mosOfGround(p PathGround) float64 {
	return netmodel.MOSFromRTT(p.RTT, p.Loss, netmodel.CodecG729A)
}

func runSessionArm(cfg StabilizationConfig) (ArmResult, error) {
	clk := &sim.Clock{}
	drv := &groundDriver{
		clk:    clk,
		byAddr: make(map[transport.Addr]PathGround, len(cfg.Paths)),
		dead:   cfg.Paths[0].Relay,
		failAt: cfg.FailAt,
	}
	for _, p := range cfg.Paths {
		drv.byAddr[p.Relay] = p
	}

	res := ArmResult{Method: "ASAP+sessions", DetectAfter: -1, RecoverAfter: -1}
	mgr, err := session.NewManager(cfg.Session, clk, drv, session.WithEventLog(func(e session.Event) {
		if e.Kind == "relay-failed" && res.DetectAfter < 0 {
			res.DetectAfter = e.At - cfg.FailAt
		}
		if (e.Kind == "failover" || e.Kind == "switch") && e.At > cfg.FailAt {
			res.Switches++
		}
	}))
	if err != nil {
		return res, err
	}
	active := session.Candidate{Relay: cfg.Paths[0].Relay, Est: cfg.Paths[0].RTT}
	var backups []session.Candidate
	for _, p := range cfg.Paths[1:] {
		backups = append(backups, session.Candidate{Relay: p.Relay, Est: p.RTT})
	}
	sess, err := mgr.Open("callee", active, backups, 1)
	if err != nil {
		return res, err
	}
	mgr.Start()

	res.PreMOS = mosOfGround(cfg.Paths[0])
	// Step the clock event by event so recovery is timed at the probe
	// that achieved it, not at a coarse sampling boundary.
	for clk.Now() < cfg.Horizon {
		if !clk.Step() {
			break
		}
		if clk.Now() > cfg.FailAt && res.RecoverAfter < 0 {
			if mos := sess.LastMOS(); res.PreMOS-mos <= cfg.Tolerance && mos > 1 {
				// LastMOS reflects the current active path only after a
				// post-failover probe; a dead active path scores 1.
				if sess.State() == session.StateActive || sess.State() == session.StateDegraded {
					res.RecoverAfter = clk.Now() - cfg.FailAt
				}
			}
		}
	}
	res.FinalMOS = sess.LastMOS()
	mgr.Close()
	return res, nil
}

// runBaselineArm models the Skype-like client of Section 5: quality is
// checked every BaselineProbeInterval with no keepalives, probes are
// noisy King-style estimates, and the client switches on the first
// noisy comparison that favours a freshly probed random candidate — no
// margin, no consecutive-probe discipline. The noise plus the missing
// hysteresis is exactly what makes it bounce between mediocre relays
// during stabilization.
func runBaselineArm(cfg StabilizationConfig) ArmResult {
	rng := sim.NewRNG(cfg.Seed)
	res := ArmResult{Method: "skype-like", DetectAfter: -1, RecoverAfter: -1}
	res.PreMOS = mosOfGround(cfg.Paths[0])

	// probeNoise is the per-measurement MOS estimation error.
	const probeNoise = 0.15
	activeIdx := 0
	alive := func(i int, now time.Duration) bool {
		return !(i == 0 && now >= cfg.FailAt)
	}
	trueMOS := func(i int, now time.Duration) float64 {
		if !alive(i, now) {
			return 1
		}
		return mosOfGround(cfg.Paths[i])
	}

	for now := cfg.BaselineProbeInterval; now <= cfg.Horizon; now += cfg.BaselineProbeInterval {
		cur := trueMOS(activeIdx, now)
		if activeIdx == 0 && !alive(0, now) && res.DetectAfter < 0 {
			res.DetectAfter = now - cfg.FailAt
		}
		// Re-probe one random candidate, Skype-style exploration.
		pick := rng.Intn(len(cfg.Paths))
		if pick != activeIdx && alive(pick, now) {
			pickEst := trueMOS(pick, now) + rng.Normal(0, probeNoise)
			curEst := cur
			if alive(activeIdx, now) {
				curEst += rng.Normal(0, probeNoise)
			}
			if pickEst > curEst {
				activeIdx = pick
				cur = trueMOS(activeIdx, now)
				if now > cfg.FailAt {
					res.Switches++
				}
			}
		}
		if now > cfg.FailAt && res.RecoverAfter < 0 && alive(activeIdx, now) &&
			res.PreMOS-cur <= cfg.Tolerance {
			res.RecoverAfter = now - cfg.FailAt
		}
		res.FinalMOS = cur
	}
	return res
}

// String renders an arm result as one report line.
func (a ArmResult) String() string {
	det, rec := "never", "never"
	if a.DetectAfter >= 0 {
		det = a.DetectAfter.Round(time.Millisecond).String()
	}
	if a.RecoverAfter >= 0 {
		rec = a.RecoverAfter.Round(time.Millisecond).String()
	}
	return fmt.Sprintf("%-14s pre-MOS %.2f, detect %s, recover %s, %d switches, final MOS %.2f",
		a.Method, a.PreMOS, det, rec, a.Switches, a.FinalMOS)
}
