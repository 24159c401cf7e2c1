package session

import (
	"strings"
	"sync"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// batchScriptDriver answers the manager's batched probe ticks through
// the scalar script, so a run against it must be observably identical to
// a run against the plain scriptDriver — the batching is a wire-level
// optimization, not a behaviour change.
type batchScriptDriver struct {
	*scriptDriver

	bmu     sync.Mutex
	batches int
	reqs    int
}

func (d *batchScriptDriver) ProbePaths(reqs []PathRequest) []PathResult {
	d.bmu.Lock()
	d.batches++
	d.reqs += len(reqs)
	d.bmu.Unlock()
	out := make([]PathResult, len(reqs))
	for i, r := range reqs {
		out[i].RTT, out[i].Loss, out[i].Err = d.scriptDriver.ProbePath(r.Relay, r.Callee)
	}
	return out
}

// runFailoverScenario drives the TestFailoverOnRelayDeath timeline
// against drv and returns the event log plus the session's end state.
func runFailoverScenario(t *testing.T, clk *sim.Clock, drv Driver) ([]Event, transport.Addr, int, float64) {
	t.Helper()
	cfg := testConfig()
	var events []Event
	m, err := NewManager(cfg, clk, drv, WithEventLog(func(e Event) { events = append(events, e) }))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Open("bob",
		Candidate{Relay: "r0", Est: 120 * time.Millisecond},
		[]Candidate{{Relay: "r1", Est: 160 * time.Millisecond}, {Relay: "r2", Est: 220 * time.Millisecond}},
		7,
	)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	clk.RunUntil(30 * time.Second)
	return events, s.Active().Relay, s.Failovers(), s.LastMOS()
}

func TestBatchDriverMatchesScalarDriver(t *testing.T) {
	const failAt = 10 * time.Second
	script := func(clk *sim.Clock) *scriptDriver {
		return &scriptDriver{
			clk: clk,
			probe: steadyProbe(
				map[transport.Addr]time.Duration{"r0": 120 * time.Millisecond, "r1": 160 * time.Millisecond, "r2": 220 * time.Millisecond},
				map[transport.Addr]float64{"r0": 0.005, "r1": 0.005, "r2": 0.01},
			),
			deadFrom: map[transport.Addr]time.Duration{"r0": failAt},
		}
	}

	sClk := &sim.Clock{}
	sEvents, sActive, sFailovers, sMOS := runFailoverScenario(t, sClk, script(sClk))

	bClk := &sim.Clock{}
	bDrv := &batchScriptDriver{scriptDriver: script(bClk)}
	bEvents, bActive, bFailovers, bMOS := runFailoverScenario(t, bClk, bDrv)

	if bDrv.batches == 0 {
		t.Fatal("manager never used the BatchDriver path")
	}
	// Every tick's plans flatten into exactly one ProbePaths call, so the
	// scalar run's probe count must equal the batch run's request count.
	if bDrv.probeCount() != bDrv.reqs {
		t.Errorf("batch driver forwarded %d scalar probes for %d requests", bDrv.probeCount(), bDrv.reqs)
	}
	if bActive != sActive || bFailovers != sFailovers || bMOS != sMOS {
		t.Errorf("batch run ended (relay=%s failovers=%d mos=%.3f), scalar (relay=%s failovers=%d mos=%.3f)",
			bActive, bFailovers, bMOS, sActive, sFailovers, sMOS)
	}
	if len(bEvents) != len(sEvents) {
		t.Fatalf("batch run logged %d events, scalar %d:\nbatch: %v\nscalar: %v",
			len(bEvents), len(sEvents), bEvents, sEvents)
	}
	for i := range sEvents {
		if sEvents[i] != bEvents[i] {
			t.Errorf("event %d differs: batch %+v, scalar %+v", i, bEvents[i], sEvents[i])
		}
	}
}

// TestBatchDriverShortReplyFailsPaths pins the defensive path: a driver
// that returns fewer results than requests must error the orphaned
// paths, not panic or silently commit stale measurements.
func TestBatchDriverShortReplyFailsPaths(t *testing.T) {
	clk := &sim.Clock{}
	m, err := NewManager(testConfig(), clk, &truncatingDriver{})
	if err != nil {
		t.Fatal(err)
	}
	plans := []probePlan{{
		id:     1,
		callee: "bob",
		paths:  []pathProbe{{cand: Candidate{Relay: "r0"}}, {cand: Candidate{Relay: "r1"}}},
	}}
	m.runPlansBatched(&truncatingDriver{}, plans)
	if plans[0].paths[0].err != nil {
		t.Errorf("covered path errored: %v", plans[0].paths[0].err)
	}
	err = plans[0].paths[1].err
	if err == nil || !strings.Contains(err.Error(), "1 results for 2 requests") {
		t.Errorf("orphaned path error = %v, want a length-mismatch error", err)
	}
}

// truncatingDriver always returns one result fewer than requested.
type truncatingDriver struct{}

func (truncatingDriver) ProbePath(relay, callee transport.Addr) (time.Duration, float64, error) {
	return 100 * time.Millisecond, 0, nil
}
func (truncatingDriver) Keepalive(target transport.Addr, flowID uint64) error { return nil }
func (truncatingDriver) ProbePaths(reqs []PathRequest) []PathResult {
	out := make([]PathResult, len(reqs)-1)
	for i := range out {
		out[i] = PathResult{RTT: 100 * time.Millisecond}
	}
	return out
}
