package session

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// scriptDriver is a deterministic Driver scripted against virtual time.
// The manager probes different sessions concurrently, so the counters
// are mutex-guarded.
type scriptDriver struct {
	clk *sim.Clock
	// probe returns the ground truth of a path at a virtual instant.
	probe func(relay transport.Addr, at time.Duration) (time.Duration, float64, error)
	// deadFrom marks relays unreachable (keepalive + probe) from a time.
	deadFrom map[transport.Addr]time.Duration

	mu         sync.Mutex
	probes     int
	keepalives int
}

func (d *scriptDriver) isDead(target transport.Addr) bool {
	t, ok := d.deadFrom[target]
	return ok && d.clk.Now() >= t
}

func (d *scriptDriver) probeCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.probes
}

func (d *scriptDriver) ProbePath(relay, callee transport.Addr) (time.Duration, float64, error) {
	d.mu.Lock()
	d.probes++
	d.mu.Unlock()
	if d.isDead(relay) {
		return 0, 0, errors.New("probe: relay unreachable")
	}
	return d.probe(relay, d.clk.Now())
}

func (d *scriptDriver) Keepalive(target transport.Addr, flowID uint64) error {
	d.mu.Lock()
	d.keepalives++
	d.mu.Unlock()
	if d.isDead(target) {
		return errors.New("keepalive: unreachable")
	}
	return nil
}

// steadyProbe scripts fixed per-relay RTT/loss ground truth.
func steadyProbe(rtt map[transport.Addr]time.Duration, loss map[transport.Addr]float64) func(transport.Addr, time.Duration) (time.Duration, float64, error) {
	return func(relay transport.Addr, _ time.Duration) (time.Duration, float64, error) {
		r, ok := rtt[relay]
		if !ok {
			return 0, 0, fmt.Errorf("no script for relay %q", relay)
		}
		return r, loss[relay], nil
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Second
	cfg.KeepaliveInterval = time.Second
	cfg.KeepaliveMisses = 3
	cfg.KeepaliveBackoff = 500 * time.Millisecond
	return cfg
}

// TestFailoverOnRelayDeath is the acceptance scenario: kill the active
// relay mid-call; the manager must detect death via missed keepalives
// within the configured detection window, fail over to a backup, and
// recover MOS to within 0.2 of the pre-failure value.
func TestFailoverOnRelayDeath(t *testing.T) {
	clk := &sim.Clock{}
	const failAt = 10 * time.Second
	drv := &scriptDriver{
		clk: clk,
		probe: steadyProbe(
			map[transport.Addr]time.Duration{"r0": 120 * time.Millisecond, "r1": 160 * time.Millisecond, "r2": 220 * time.Millisecond},
			map[transport.Addr]float64{"r0": 0.005, "r1": 0.005, "r2": 0.01},
		),
		deadFrom: map[transport.Addr]time.Duration{"r0": failAt},
	}
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

	// Let the call stabilize before the failure.
	clk.RunUntil(failAt - 100*time.Millisecond)
	preMOS := s.LastMOS()
	if preMOS < 3.5 {
		t.Fatalf("pre-failure MOS = %.2f, want a healthy call", preMOS)
	}
	if s.State() != StateActive {
		t.Fatalf("pre-failure state = %v, want active", s.State())
	}

	// The relay dies at failAt; run past the worst-case detection window.
	window := cfg.DetectionWindow()
	clk.RunUntil(failAt + window + 100*time.Millisecond)
	if got := s.Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1 (events: %v)", got, events)
	}
	if act := s.Active().Relay; act != "r1" {
		t.Errorf("failed over to %q, want best backup r1", act)
	}

	// The failover event itself must land inside the detection window.
	var failedAt time.Duration = -1
	for _, e := range events {
		if e.Kind == "failover" {
			failedAt = e.At
		}
	}
	if failedAt < 0 {
		t.Fatalf("no failover event recorded: %v", events)
	}
	if d := failedAt - failAt; d > window {
		t.Errorf("failure detected %v after death, want <= %v", d, window)
	}

	// MOS must recover to within 0.2 of pre-failure at the next probes.
	clk.RunUntil(failAt + window + 2*cfg.ProbeInterval)
	postMOS := s.LastMOS()
	if preMOS-postMOS > 0.2 {
		t.Errorf("post-failover MOS %.2f did not recover to within 0.2 of pre-failure %.2f", postMOS, preMOS)
	}
	if s.State() != StateActive {
		t.Errorf("post-failover state = %v, want active", s.State())
	}
}

// flappingProbe scripts a backup that looks great on even probe ticks
// and terrible on odd ones — the classic relay-bounce bait.
func flappingProbe(probeInterval time.Duration) func(transport.Addr, time.Duration) (time.Duration, float64, error) {
	return func(relay transport.Addr, at time.Duration) (time.Duration, float64, error) {
		switch relay {
		case "steady":
			return 280 * time.Millisecond, 0.02, nil
		case "flappy":
			tick := int(at / probeInterval)
			if tick%2 == 0 {
				return 80 * time.Millisecond, 0, nil // tempting
			}
			return 300 * time.Millisecond, 0.10, nil // awful
		}
		return 0, 0, fmt.Errorf("no script for relay %q", relay)
	}
}

// TestHysteresisPreventsRelayBounce is the flapping-quality acceptance
// scenario: under a naive best-MOS policy the call bounces between the
// steady active path and a flapping backup (>= 3 switches); with the
// margin+consecutive hysteresis it switches at most once.
func TestHysteresisPreventsRelayBounce(t *testing.T) {
	run := func(cfg Config) int {
		clk := &sim.Clock{}
		drv := &scriptDriver{clk: clk, probe: flappingProbe(cfg.ProbeInterval)}
		m, err := NewManager(cfg, clk, drv)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Open("bob",
			Candidate{Relay: "steady", Est: 280 * time.Millisecond},
			[]Candidate{{Relay: "flappy", Est: 90 * time.Millisecond}},
			1,
		)
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		clk.RunUntil(30 * time.Second) // 15 probe ticks
		return s.Switches()
	}

	naive := testConfig()
	naive.SwitchMargin = 0
	naive.SwitchConsecutive = 1
	if got := run(naive); got < 3 {
		t.Errorf("naive best-MOS policy switched %d times, want >= 3 (relay bounce)", got)
	}

	hyst := testConfig()
	hyst.SwitchMargin = 0.3
	hyst.SwitchConsecutive = 3
	if got := run(hyst); got > 1 {
		t.Errorf("hysteresis policy switched %d times, want <= 1", got)
	}
}

// TestSwitchoverOnSustainedImprovement checks the inverse of the bounce
// test: a backup that is *consistently* better must win after exactly
// SwitchConsecutive qualifying probes, and the displaced path is kept as
// a backup.
func TestSwitchoverOnSustainedImprovement(t *testing.T) {
	clk := &sim.Clock{}
	drv := &scriptDriver{
		clk: clk,
		probe: steadyProbe(
			map[transport.Addr]time.Duration{"slow": 300 * time.Millisecond, "fast": 80 * time.Millisecond},
			map[transport.Addr]float64{"slow": 0.06, "fast": 0},
		),
	}
	cfg := testConfig()
	var events []Event
	m, err := NewManager(cfg, clk, drv, WithEventLog(func(e Event) { events = append(events, e) }))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Open("bob",
		Candidate{Relay: "slow", Est: 300 * time.Millisecond},
		[]Candidate{{Relay: "fast", Est: 80 * time.Millisecond}},
		1,
	)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()

	// After SwitchConsecutive-1 ticks: no switch yet.
	clk.RunUntil(time.Duration(cfg.SwitchConsecutive-1)*cfg.ProbeInterval + cfg.ProbeInterval/2)
	if s.Switches() != 0 {
		t.Fatalf("switched after %d probes, want hysteresis to hold %d", cfg.SwitchConsecutive-1, cfg.SwitchConsecutive)
	}
	// One more qualifying probe seals it.
	clk.RunUntil(time.Duration(cfg.SwitchConsecutive)*cfg.ProbeInterval + cfg.ProbeInterval/2)
	if s.Switches() != 1 {
		t.Fatalf("switches = %d, want 1 (events: %v)", s.Switches(), events)
	}
	if s.Active().Relay != "fast" {
		t.Errorf("active = %q, want fast", s.Active().Relay)
	}
	// The displaced path must remain available as a backup.
	found := false
	for _, st := range m.Snapshot() {
		if st.ID == s.ID() && st.Backups == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("displaced path not retained as backup: %+v", m.Snapshot())
	}
}

// TestReselectOnBackupExhaustion: when the active relay dies with no
// backups left, the manager must invoke the reselect hook (re-running
// select-close-relay) and fail over onto its result.
func TestReselectOnBackupExhaustion(t *testing.T) {
	clk := &sim.Clock{}
	drv := &scriptDriver{
		clk: clk,
		probe: steadyProbe(
			map[transport.Addr]time.Duration{"r0": 100 * time.Millisecond, "fresh": 140 * time.Millisecond},
			nil,
		),
		deadFrom: map[transport.Addr]time.Duration{"r0": 5 * time.Second},
	}
	reselects := 0
	m, err := NewManager(testConfig(), clk, drv, WithReselect(func(callee transport.Addr) ([]Candidate, error) {
		reselects++
		return []Candidate{
			{Relay: "r0", Est: 100 * time.Millisecond}, // dead relay must be filtered
			{Relay: "fresh", Est: 140 * time.Millisecond},
		}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Open("bob", Candidate{Relay: "r0", Est: 100 * time.Millisecond}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	clk.RunUntil(5*time.Second + m.cfg.DetectionWindow() + 100*time.Millisecond)
	if reselects != 1 {
		t.Fatalf("reselect called %d times, want 1", reselects)
	}
	if s.Active().Relay != "fresh" {
		t.Errorf("active = %q, want fresh from reselect", s.Active().Relay)
	}
	if s.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", s.Failovers())
	}
}

// TestFailedStateWhenNoPathLeft: with no backups and no reselect hook
// the session must park in Failed, not spin or crash.
func TestFailedStateWhenNoPathLeft(t *testing.T) {
	clk := &sim.Clock{}
	drv := &scriptDriver{
		clk:      clk,
		probe:    steadyProbe(map[transport.Addr]time.Duration{"r0": 100 * time.Millisecond}, nil),
		deadFrom: map[transport.Addr]time.Duration{"r0": 3 * time.Second},
	}
	m, err := NewManager(testConfig(), clk, drv)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Open("bob", Candidate{Relay: "r0", Est: 100 * time.Millisecond}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	clk.RunUntil(20 * time.Second)
	if s.State() != StateFailed {
		t.Errorf("state = %v, want failed", s.State())
	}
	if s.Failovers() != 0 {
		t.Errorf("failovers = %d, want 0 with no path to fail to", s.Failovers())
	}
}

// TestFailedSessionAnnouncesOnceAndRecovers: a session parked in Failed
// must not re-announce the failure on every subsequent keepalive tick,
// and must resume monitoring (with a "recovered" event) if the declared-
// dead path starts answering again.
func TestFailedSessionAnnouncesOnceAndRecovers(t *testing.T) {
	clk := &sim.Clock{}
	drv := &scriptDriver{
		clk:      clk,
		probe:    steadyProbe(map[transport.Addr]time.Duration{"r0": 100 * time.Millisecond}, nil),
		deadFrom: map[transport.Addr]time.Duration{"r0": 3 * time.Second},
	}
	var events []Event
	m, err := NewManager(testConfig(), clk, drv, WithEventLog(func(e Event) { events = append(events, e) }))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Open("bob", Candidate{Relay: "r0", Est: 100 * time.Millisecond}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()

	// Long stretch in the failed state: many keepalive ticks, but the
	// relay-failed / no-path announcements must fire exactly once.
	clk.RunUntil(60 * time.Second)
	if s.State() != StateFailed {
		t.Fatalf("state = %v, want failed", s.State())
	}
	count := func(kind string) int {
		n := 0
		for _, e := range events {
			if e.Kind == kind {
				n++
			}
		}
		return n
	}
	if n := count("relay-failed"); n != 1 {
		t.Errorf("relay-failed announced %d times, want 1", n)
	}
	if n := count("no-path"); n != 1 {
		t.Errorf("no-path announced %d times, want 1", n)
	}

	// The path comes back: the next keepalive must restore the session.
	delete(drv.deadFrom, "r0")
	clk.RunUntil(62 * time.Second)
	if s.State() == StateFailed {
		t.Errorf("state still failed after path recovery")
	}
	if n := count("recovered"); n != 1 {
		t.Errorf("recovered announced %d times, want 1", n)
	}
}

func TestCloseReports(t *testing.T) {
	clk := &sim.Clock{}
	drv := &scriptDriver{
		clk:   clk,
		probe: steadyProbe(map[transport.Addr]time.Duration{"r0": 100 * time.Millisecond, "r1": 150 * time.Millisecond}, nil),
	}
	m, err := NewManager(testConfig(), clk, drv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("bob", Candidate{Relay: "r0"}, nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("carol", Candidate{Relay: "r1"}, nil, 2); err != nil {
		t.Fatal(err)
	}
	m.Start()
	clk.RunUntil(10 * time.Second)
	reports := m.Close()
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.Duration != 10*time.Second {
			t.Errorf("report %d duration = %v, want 10s", r.ID, r.Duration)
		}
		if r.FinalState != StateClosed {
			t.Errorf("report %d state = %v, want closed", r.ID, r.FinalState)
		}
		if r.MeanMOS <= 1 {
			t.Errorf("report %d mean MOS = %.2f, want > 1", r.ID, r.MeanMOS)
		}
	}
	// The loops must stop after Close: no further driver activity.
	probes := drv.probeCount()
	clk.RunUntil(30 * time.Second)
	if got := drv.probeCount(); got != probes {
		t.Errorf("probes continued after Close: %d -> %d", probes, got)
	}
	if _, err := m.Open("dave", Candidate{Relay: "r0"}, nil, 3); err == nil {
		t.Error("Open after Close must fail")
	}
}

func TestConfigValidateAndDetectionWindow(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.ProbeInterval = 0 },
		func(c *Config) { c.KeepaliveInterval = 0 },
		func(c *Config) { c.KeepaliveMisses = 0 },
		func(c *Config) { c.KeepaliveBackoff = 0 },
		func(c *Config) { c.SwitchMargin = -1 },
		func(c *Config) { c.SwitchConsecutive = 0 },
		func(c *Config) { c.Backups = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}

	cfg := DefaultConfig()
	cfg.KeepaliveInterval = time.Second
	cfg.KeepaliveBackoff = 500 * time.Millisecond
	cfg.KeepaliveMisses = 3
	// 1s to first miss + 500ms + 1s retries = 2.5s worst case.
	if w := cfg.DetectionWindow(); w != 2500*time.Millisecond {
		t.Errorf("DetectionWindow = %v, want 2.5s", w)
	}
}

func TestHistoryBounded(t *testing.T) {
	clk := &sim.Clock{}
	drv := &scriptDriver{
		clk:   clk,
		probe: steadyProbe(map[transport.Addr]time.Duration{"r0": 100 * time.Millisecond}, nil),
	}
	cfg := testConfig()
	m, err := NewManager(cfg, clk, drv)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Open("bob", Candidate{Relay: "r0"}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	// One probe per tick: twice the ring's worth of ticks overfills it.
	clk.RunUntil(2 * historyLimit * cfg.ProbeInterval)
	if h := s.History(); len(h) != historyLimit {
		t.Errorf("history length = %d, want bounded at %d", len(h), historyLimit)
	}
}

// rendezvousDriver proves cross-session probe concurrency: every
// ProbePath blocks until `need` probes are in flight at once, then all
// of them return. If the manager serialized probe I/O (the pre-refactor
// behavior, with driver calls made under the state lock), the first
// probe would wait forever and the rendezvous would never complete.
type rendezvousDriver struct {
	need     int
	mu       sync.Mutex
	inFlight int
	reached  chan struct{}
	once     sync.Once
}

func (d *rendezvousDriver) ProbePath(relay, callee transport.Addr) (time.Duration, float64, error) {
	d.mu.Lock()
	d.inFlight++
	if d.inFlight >= d.need {
		d.once.Do(func() { close(d.reached) })
	}
	d.mu.Unlock()
	select {
	case <-d.reached:
	case <-time.After(3 * time.Second):
		return 0, 0, errors.New("rendezvous timed out: probes are serialized")
	}
	d.mu.Lock()
	d.inFlight--
	d.mu.Unlock()
	return 100 * time.Millisecond, 0, nil
}

func (d *rendezvousDriver) Keepalive(target transport.Addr, flowID uint64) error { return nil }

// TestProbesConcurrentAcrossSessionsWallClock is the regression test for
// the snapshot-probe-commit refactor: under a real clock, two open
// sessions must have their path probes in flight simultaneously.
func TestProbesConcurrentAcrossSessionsWallClock(t *testing.T) {
	cfg := testConfig()
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.KeepaliveInterval = time.Hour // keep keepalive traffic out of the way
	cfg.Backups = 0                   // exactly one probe per session per tick
	drv := &rendezvousDriver{need: 2, reached: make(chan struct{})}
	m, err := NewManager(cfg, sim.NewWall(), drv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("bob", Candidate{Relay: "r0", Est: 100 * time.Millisecond}, nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("carol", Candidate{Relay: "r1", Est: 100 * time.Millisecond}, nil, 2); err != nil {
		t.Fatal(err)
	}
	m.Start()
	select {
	case <-drv.reached:
	case <-time.After(5 * time.Second):
		t.Fatal("two sessions' probes never overlapped: probe I/O is serialized across sessions")
	}
	m.Close()
}

// TestOnPathChangeHook: every path move — failure-driven or
// quality-driven — must invoke the session's OnPathChange hook with the
// new relay, outside the manager lock (the hook re-enters the session
// freely; the media plane re-runs its traversal ladder from it).
func TestOnPathChangeHook(t *testing.T) {
	clk := &sim.Clock{}
	const failAt = 10 * time.Second
	drv := &scriptDriver{
		clk: clk,
		probe: steadyProbe(
			map[transport.Addr]time.Duration{"r0": 120 * time.Millisecond, "r1": 160 * time.Millisecond},
			map[transport.Addr]float64{"r0": 0.005, "r1": 0.005},
		),
		deadFrom: map[transport.Addr]time.Duration{"r0": failAt},
	}
	m, err := NewManager(testConfig(), clk, drv)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Open("bob",
		Candidate{Relay: "r0", Est: 120 * time.Millisecond},
		[]Candidate{{Relay: "r1", Est: 160 * time.Millisecond}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var changes []transport.Addr
	s.OnPathChange(func(newRelay transport.Addr) {
		// Re-entering the session here must not deadlock: the hook runs
		// on its own scheduler task after the switch commits.
		_ = s.Active()
		changes = append(changes, newRelay)
	})
	m.Start()

	clk.RunUntil(failAt - 100*time.Millisecond)
	if len(changes) != 0 {
		t.Fatalf("hook fired %d times before any path change", len(changes))
	}
	clk.RunUntil(failAt + 30*time.Second)
	if len(changes) != 1 || changes[0] != "r1" {
		t.Errorf("hook calls = %v, want exactly [r1] after the failover", changes)
	}
	if s.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", s.Failovers())
	}
	m.Close()
}
