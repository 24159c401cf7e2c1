// Failover: the live call-session subsystem on a deterministic virtual
// clock. Three demonstrations:
//
//  1. Relay death mid-call: keepalive misses with bounded backoff
//     retries declare the relay dead and the session fails over to the
//     best monitored backup — the full event timeline is printed.
//
//  2. Relay bounce: a backup whose measured quality flaps above and
//     below the active path's. The naive switch-on-first-better policy
//     bounces; hysteresis (margin + consecutive probes) holds still.
//
//  3. The stabilization experiment (the paper's Table 4 story): the
//     session-managed call vs a Skype-like client without keepalives or
//     hysteresis, same failure, same clock.
//
//     go run ./examples/failover
package main

import (
	"fmt"
	"os"
	"time"

	"asap/internal/eval"
	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run() error {
	if err := failoverTimeline(); err != nil {
		return err
	}
	if err := hysteresisVsNaive(); err != nil {
		return err
	}
	return stabilization()
}

// failoverTimeline kills the active relay at t=10s and prints every
// session event until the call closes at t=30s.
func failoverTimeline() error {
	fmt.Println("=== 1. relay death and failover ===")
	clk := &sim.Clock{}
	drv := eval.NewGroundDriver(clk, []eval.PathGround{
		{Relay: "relay-a", RTT: 120 * time.Millisecond, Loss: 0.005},
		{Relay: "relay-b", RTT: 150 * time.Millisecond, Loss: 0.010},
		{Relay: "relay-c", RTT: 240 * time.Millisecond, Loss: 0.030},
	}, "relay-a", 10*time.Second, nil)
	cfg := session.DefaultConfig()
	mgr, err := session.NewManager(cfg, clk, drv,
		session.WithEventLog(func(e session.Event) { fmt.Println("  ", e) }))
	if err != nil {
		return err
	}
	sess, err := mgr.Open("callee",
		session.Candidate{Relay: "relay-a", Est: 120 * time.Millisecond},
		[]session.Candidate{
			{Relay: "relay-b", Est: 150 * time.Millisecond},
			{Relay: "relay-c", Est: 240 * time.Millisecond},
		}, 1)
	if err != nil {
		return err
	}
	mgr.Start()
	clk.RunUntil(30 * time.Second)
	state, via, failovers := sess.State(), sess.Active().Relay, sess.Failovers()
	mgr.Close()
	fmt.Printf("   detection window: %v (keepalive %v + backoff retries)\n",
		cfg.DetectionWindow(), cfg.KeepaliveInterval)
	fmt.Printf("   outcome: %s via %s, %d failovers\n\n", state, via, failovers)
	return nil
}

// hysteresisVsNaive runs the same flapping backup against the hysteresis
// policy and the naive one, and prints how often each switched.
func hysteresisVsNaive() error {
	fmt.Println("=== 2. relay bounce: hysteresis vs naive ===")
	run := func(margin float64, consecutive int) (int, error) {
		clk := &sim.Clock{}
		// The backup alternates each probe round between pristine
		// (briefly better than the active path) and badly lossy.
		flap := func(relay transport.Addr, at time.Duration) (float64, bool) {
			if relay != "flappy" {
				return 0, false
			}
			if (at/(2*time.Second))%2 == 0 {
				return 0.0, true
			}
			return 0.10, true
		}
		drv := eval.NewGroundDriver(clk, []eval.PathGround{
			{Relay: "steady", RTT: 150 * time.Millisecond, Loss: 0.02},
			{Relay: "flappy", RTT: 140 * time.Millisecond, Loss: 0.02},
		}, "", 0, flap)
		cfg := session.DefaultConfig()
		cfg.SwitchMargin = margin
		cfg.SwitchConsecutive = consecutive
		mgr, err := session.NewManager(cfg, clk, drv)
		if err != nil {
			return 0, err
		}
		sess, err := mgr.Open("callee",
			session.Candidate{Relay: "steady", Est: 150 * time.Millisecond},
			[]session.Candidate{{Relay: "flappy", Est: 140 * time.Millisecond}}, 1)
		if err != nil {
			return 0, err
		}
		mgr.Start()
		clk.RunUntil(2 * time.Minute)
		switches := sess.Switches()
		mgr.Close()
		return switches, nil
	}
	naive, err := run(0, 1)
	if err != nil {
		return err
	}
	cfg := session.DefaultConfig()
	held, err := run(cfg.SwitchMargin, cfg.SwitchConsecutive)
	if err != nil {
		return err
	}
	fmt.Printf("   naive (switch on first better probe): %d switches in 2 min\n", naive)
	fmt.Printf("   hysteresis (margin %.1f MOS x %d probes): %d switches in 2 min\n\n",
		cfg.SwitchMargin, cfg.SwitchConsecutive, held)
	return nil
}

// stabilization runs the Table 4 experiment: time-to-recover after the
// active relay dies, session-managed vs Skype-like.
func stabilization() error {
	fmt.Println("=== 3. stabilization after relay death ===")
	cfg := eval.DefaultStabilizationConfig([]eval.PathGround{
		{Relay: "r0", RTT: 110 * time.Millisecond, Loss: 0.005},
		{Relay: "r1", RTT: 140 * time.Millisecond, Loss: 0.005},
		{Relay: "r2", RTT: 320 * time.Millisecond, Loss: 0.03},
		{Relay: "r3", RTT: 380 * time.Millisecond, Loss: 0.04},
		{Relay: "r4", RTT: 420 * time.Millisecond, Loss: 0.05},
		{Relay: "r5", RTT: 350 * time.Millisecond, Loss: 0.06},
	})
	cfg.FailAt = 21300 * time.Millisecond
	res, err := eval.RunStabilization(cfg)
	if err != nil {
		return err
	}
	fmt.Println("  ", res.ASAP)
	fmt.Println("  ", res.Baseline)
	fmt.Println("   (relay dies at", cfg.FailAt, "— detect/recover measured from there)")
	return nil
}
