package eval

import (
	"fmt"
	"time"

	"asap/internal/core"
	"asap/internal/sim"
	"asap/internal/transport"
)

// The churn experiment measures the control-plane robustness layer end to
// end on the live actors (not the simulation): a three-cluster deployment
// places a stream of calls while the bootstrap suffers an outage window
// and the callee cluster's surrogate is killed mid-workload. Two arms run
// the identical seeded fault schedule:
//
//   - "lease": surrogate registrations expire unless renewed by
//     heartbeat, so after the kill the bootstrap stops handing out the
//     dead surrogate, the surviving member re-elects itself, and relayed
//     call setup recovers.
//   - "no-lease": registrations never expire (the pre-lease protocol).
//     The dead surrogate is handed out forever; calls keep completing
//     only because setup degrades to direct.
//
// Reported per arm: call-success rate, how many calls used a relay after
// the kill, whether the cluster re-elected, and the re-election latency.

// ChurnConfig parameterizes one churn run.
type ChurnConfig struct {
	// Calls is the number of calls placed (sequentially) by the workload.
	Calls int
	// KillAfter is the call index before which the callee cluster's
	// surrogate is killed.
	KillAfter int
	// LeaseTTL is the lease arm's surrogate-lease lifetime (the no-lease
	// arm always runs with 0).
	LeaseTTL time.Duration
	// Drop is the background per-call drop probability both arms endure.
	Drop float64
	// Seed seeds the chaos transport.
	Seed int64
}

// DefaultChurnConfig returns the standard churn workload.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		Calls:     20,
		KillAfter: 7,
		LeaseTTL:  120 * time.Millisecond,
		Drop:      0.02,
		Seed:      1,
	}
}

// The fixed part of the churn fault schedule.
const (
	churnCallGap         = 5 * time.Millisecond   // pause between consecutive calls
	churnOutageAfter     = 3                      // call index at which the bootstrap outage starts
	churnBootstrapOutage = 150 * time.Millisecond // how long the bootstrap stays unreachable
)

func (c ChurnConfig) validate() error {
	if c.Calls < 1 {
		return fmt.Errorf("eval: churn needs at least one call")
	}
	if c.KillAfter < 0 || c.KillAfter >= c.Calls {
		return fmt.Errorf("eval: need 0 <= KillAfter < Calls")
	}
	if c.LeaseTTL <= 0 {
		return fmt.Errorf("eval: the lease arm needs LeaseTTL > 0")
	}
	if c.Drop < 0 || c.Drop >= 1 {
		return fmt.Errorf("eval: Drop must be in [0,1)")
	}
	return nil
}

// ChurnArm is one policy's measured churn behaviour.
type ChurnArm struct {
	Method   string
	LeaseTTL time.Duration
	// Calls is the workload size; Completed counts calls that delivered
	// voice (relayed, direct, or degraded-direct).
	Calls     int
	Completed int
	// Relayed counts calls that delivered voice through a relay;
	// RelayedAfterKill counts those placed after the surrogate kill — the
	// recovery signal.
	Relayed          int
	RelayedAfterKill int
	// Degraded counts calls that fell back to direct because of a
	// control-plane failure.
	Degraded int
	// Reelected reports whether the callee cluster elected a replacement
	// surrogate within the workload; ReelectLatency is the time from the
	// kill to the first observation of the replacement.
	Reelected      bool
	ReelectLatency time.Duration
}

// SuccessRate is the fraction of calls that delivered voice.
func (a ChurnArm) SuccessRate() float64 {
	if a.Calls == 0 {
		return 0
	}
	return float64(a.Completed) / float64(a.Calls)
}

// String renders an arm as one report line.
func (a ChurnArm) String() string {
	reelect := "no re-election"
	if a.Reelected {
		reelect = fmt.Sprintf("re-elected in %s", a.ReelectLatency.Round(time.Millisecond))
	}
	return fmt.Sprintf("%-16s success %d/%d (%.0f%%), relayed %d (%d after kill), degraded %d, %s",
		a.Method, a.Completed, a.Calls, 100*a.SuccessRate(),
		a.Relayed, a.RelayedAfterKill, a.Degraded, reelect)
}

// ChurnResult pairs the two arms.
type ChurnResult struct {
	Lease   ChurnArm
	NoLease ChurnArm
}

// RunChurn runs the lease and no-lease arms over the identical fault
// schedule and returns their measurements.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	if err := cfg.validate(); err != nil {
		return ChurnResult{}, err
	}
	lease, err := runChurnArm(cfg, cfg.LeaseTTL, fmt.Sprintf("lease(%s)", cfg.LeaseTTL))
	if err != nil {
		return ChurnResult{}, err
	}
	nolease, err := runChurnArm(cfg, 0, "no-lease")
	if err != nil {
		return ChurnResult{}, err
	}
	return ChurnResult{Lease: lease, NoLease: nolease}, nil
}

// runChurnArm runs one arm entirely on a virtual clock: the whole
// deployment — transport latency, chaos windows, leases, retries,
// renewal heartbeats and the call workload — shares one *sim.Clock, so
// seconds of protocol time cost milliseconds of wall time and the arm's
// measurements are byte-identical for a given seed.
func runChurnArm(cfg ChurnConfig, ttl time.Duration, method string) (ChurnArm, error) {
	arm := ChurnArm{Method: method, LeaseTTL: ttl, Calls: cfg.Calls}

	clk := sim.NewClock()
	mem := transport.NewMem()
	mem.Sched = clk
	defer func() { _ = mem.Close() }()
	// One-way delays: the 100<->200 direct path is slow (RTT 56ms, above
	// LatT 55ms); both are 2ms from the relay cluster (relay estimate
	// 4+4+40 = 48ms, under LatT and under direct).
	mem.Latency = func(from, to transport.Addr) time.Duration {
		cl := func(a transport.Addr) byte {
			if len(a) != 2 {
				return 'z' // bootstrap
			}
			return a[0]
		}
		cf, ct := cl(from), cl(to)
		if cf > ct {
			cf, ct = ct, cf
		}
		switch {
		case cf == 'a' && ct == 'b':
			return 28 * time.Millisecond
		case (cf == 'a' || cf == 'b') && ct == 'c':
			return 2 * time.Millisecond
		default:
			return time.Millisecond
		}
	}
	chaos := transport.NewChaos(mem, cfg.Seed)
	chaos.Sched = clk
	chaos.DropDefault(cfg.Drop)

	// The deployment and workload run as the clock's root task: node
	// construction, retries, lease renewal and the call stream all block
	// on virtual time only. RunTask returns when the workload ends,
	// abandoning whatever background ticks are still scheduled.
	var runErr error
	clk.RunTask(func() {
		// The demo world: stub clusters AS100 and AS200 sit far apart;
		// multi-homed AS300 is close to both, so its surrogate is the
		// natural relay.
		bsCfg := core.DemoBootstrapConfig()
		bsCfg.LeaseTTL = ttl
		bsCfg.Sched = clk
		bs, err := core.NewBootstrap(chaos, "bs", bsCfg)
		if err != nil {
			runErr = err
			return
		}

		params := core.DefaultParams()
		params.LatT = 55 * time.Millisecond
		var nodes []*core.Node
		defer func() {
			for _, n := range nodes {
				n.Close()
			}
		}()
		mk := func(addr transport.Addr, ip string) (*core.Node, error) {
			n, err := core.NewNode(chaos, addr, core.NodeConfig{
				IP: ip, Bootstrap: bs.Addr(), Params: params,
				Retry: core.RetryPolicy{Attempts: 4, BaseDelay: 3 * time.Millisecond, MaxDelay: 25 * time.Millisecond, Multiplier: 2},
				Sched: clk, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("eval: churn node %s: %w", addr, err)
			}
			nodes = append(nodes, n)
			return n, nil
		}
		c0, err := mk("c0", "10.30.0.1") // relay cluster first so A/B see it
		if err != nil {
			runErr = err
			return
		}
		a0, err := mk("a0", "10.100.0.1")
		if err != nil {
			runErr = err
			return
		}
		a1, err := mk("a1", "10.100.0.2")
		if err != nil {
			runErr = err
			return
		}
		b0, err := mk("b0", "10.200.0.1")
		if err != nil {
			runErr = err
			return
		}
		b1, err := mk("b1", "10.200.0.2")
		if err != nil {
			runErr = err
			return
		}
		for _, n := range []*core.Node{c0, a0, b0} {
			if err := n.RefreshCloseSet(); err != nil {
				runErr = fmt.Errorf("eval: churn refresh %s: %w", n.Addr(), err)
				return
			}
		}

		const notKilled = time.Duration(-1)
		killedAt := notKilled
		payload := []byte("churn-voice-frames")
		for i := 0; i < cfg.Calls; i++ {
			if i == churnOutageAfter {
				chaos.OutageFor(bs.Addr(), churnBootstrapOutage)
			}
			if i == cfg.KillAfter {
				b0.Close()
				mem.Unbind(b0.Addr())
				killedAt = clk.Now()
			}
			choice, err := a1.SetupCall(b1.Addr())
			if err == nil {
				if err := a1.SendVoice(choice, b1.Addr(), payload, uint32(i)); err != nil {
					// Voice path faulted mid-call: drop the dead relay flow and
					// retry once on the direct path.
					a1.DropFlow(choice.Relay, b1.Addr())
					direct := &core.RelayChoice{Relay: ""}
					if err := a1.SendVoice(direct, b1.Addr(), payload, uint32(i)); err == nil {
						arm.Completed++
						arm.Degraded++
					}
				} else {
					arm.Completed++
					switch {
					case choice.Relay != "":
						arm.Relayed++
						if killedAt != notKilled {
							arm.RelayedAfterKill++
						}
					case choice.Degraded:
						arm.Degraded++
					}
				}
			}
			if killedAt != notKilled && !arm.Reelected && b1.IsSurrogate() {
				arm.Reelected = true
				arm.ReelectLatency = clk.Now() - killedAt
			}
			clk.Sleep(churnCallGap)
		}
		// A re-election that lands after the last call still counts, with the
		// latency measured at observation time.
		if killedAt != notKilled && !arm.Reelected && b1.IsSurrogate() {
			arm.Reelected = true
			arm.ReelectLatency = clk.Now() - killedAt
		}
	})
	return arm, runErr
}

// String renders the churn result as a two-line report.
func (r ChurnResult) String() string {
	return r.Lease.String() + "\n" + r.NoLease.String()
}
