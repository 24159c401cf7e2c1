package eval

import (
	"testing"
	"time"

	"asap/internal/transport"
)

// stabilizationPaths: the active relay r0 (the one that dies), one
// near-equivalent backup r1, and a tail of mediocre candidates the
// Skype-like random explorer keeps stumbling onto.
func stabilizationPaths() []PathGround {
	return []PathGround{
		{Relay: "r0", RTT: 110 * time.Millisecond, Loss: 0.005},
		{Relay: "r1", RTT: 140 * time.Millisecond, Loss: 0.005},
		{Relay: "r2", RTT: 320 * time.Millisecond, Loss: 0.03},
		{Relay: "r3", RTT: 380 * time.Millisecond, Loss: 0.04},
		{Relay: "r4", RTT: 420 * time.Millisecond, Loss: 0.05},
		{Relay: "r5", RTT: 350 * time.Millisecond, Loss: 0.06},
	}
}

func TestStabilizationASAPRecoversFastAndClean(t *testing.T) {
	cfg := DefaultStabilizationConfig(stabilizationPaths())
	res, err := RunStabilization(cfg)
	if err != nil {
		t.Fatal(err)
	}

	a := res.ASAP
	if a.DetectAfter < 0 {
		t.Fatal("ASAP arm never detected the relay failure")
	}
	if window := cfg.Session.DetectionWindow(); a.DetectAfter > window {
		t.Errorf("ASAP detected after %v, want <= detection window %v", a.DetectAfter, window)
	}
	if a.RecoverAfter < 0 {
		t.Fatal("ASAP arm never recovered MOS")
	}
	// Recovery must land within one probe interval past the detection
	// window (the failover itself restores the path; the next probe
	// confirms the MOS).
	if limit := cfg.Session.DetectionWindow() + cfg.Session.ProbeInterval; a.RecoverAfter > limit {
		t.Errorf("ASAP recovered after %v, want <= %v", a.RecoverAfter, limit)
	}
	if a.Switches != 1 {
		t.Errorf("ASAP made %d path changes, want exactly 1 (single failover, no bounce)", a.Switches)
	}
	if a.PreMOS-a.FinalMOS > stabilizationTolerance {
		t.Errorf("ASAP final MOS %.2f not within %.1f of pre-failure %.2f", a.FinalMOS, stabilizationTolerance, a.PreMOS)
	}
}

// TestStabilizationBaselineIsSlowerAndBouncy sweeps seeds so the claim
// is about the baseline's expected behaviour, not one lucky draw: on
// average the Skype-like client stabilizes slower and switches more
// than the session-managed call (the Table 4 story).
func TestStabilizationBaselineIsSlowerAndBouncy(t *testing.T) {
	cfg := DefaultStabilizationConfig(stabilizationPaths())
	cfg.FailAt = 21300 * time.Millisecond // unaligned with both probe cadences

	var asap ArmResult
	var recoverSum time.Duration
	var switchSum, recovered, bounced int
	const seeds = 10
	for seed := int64(1); seed <= seeds; seed++ {
		cfg.Seed = seed
		res, err := RunStabilization(cfg)
		if err != nil {
			t.Fatal(err)
		}
		asap = res.ASAP
		b := res.Baseline
		if b.RecoverAfter >= 0 {
			recovered++
			recoverSum += b.RecoverAfter
		} else {
			// Never recovering within the horizon is the paper's worst
			// case; count it at the horizon bound.
			recoverSum += stabilizationHorizon - cfg.FailAt
		}
		switchSum += b.Switches
		if b.Switches >= 2 {
			bounced++
		}
		if b.DetectAfter >= 0 && b.DetectAfter < asap.DetectAfter {
			t.Errorf("seed %d: baseline detected faster (%v) than keepalive-driven ASAP (%v)",
				seed, b.DetectAfter, asap.DetectAfter)
		}
	}

	meanRecover := recoverSum / seeds
	if meanRecover <= asap.RecoverAfter {
		t.Errorf("baseline mean recovery %v <= ASAP %v: sessions should stabilize faster", meanRecover, asap.RecoverAfter)
	}
	meanSwitches := float64(switchSum) / seeds
	if meanSwitches <= float64(asap.Switches) {
		t.Errorf("baseline mean switches %.1f <= ASAP %d: expected relay bounce", meanSwitches, asap.Switches)
	}
	if bounced == 0 {
		t.Error("no seed showed relay bounce (>= 2 switches) in the baseline")
	}
	if recovered == 0 {
		t.Error("baseline never recovered under any seed; model too pessimistic to compare")
	}
}

func TestStabilizationConfigValidation(t *testing.T) {
	good := stabilizationPaths()
	cases := []StabilizationConfig{
		DefaultStabilizationConfig(nil),
		DefaultStabilizationConfig(good[:1]),
		func() StabilizationConfig { c := DefaultStabilizationConfig(good); c.FailAt = 0; return c }(),
		func() StabilizationConfig {
			c := DefaultStabilizationConfig(good)
			c.FailAt = stabilizationHorizon
			return c
		}(),
		func() StabilizationConfig {
			c := DefaultStabilizationConfig(good)
			c.Session.ProbeInterval = 0
			return c
		}(),
	}
	for i, c := range cases {
		if _, err := RunStabilization(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

var _ = transport.Addr("") // keep the import pinned to the ground-truth type's package
