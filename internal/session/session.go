// Package session owns the lifetime of an active relayed call — the
// layer the paper's Section 5 Skype study shows is missing from
// setup-time relay selection alone. A Manager per node tracks open
// Sessions, runs a periodic monitor loop (sim-clock-driven in tests,
// wall-clock in asapd) that probes the active path and a few backup
// relays from the call-setup candidate list, converts measured RTT/loss
// into MOS through the E-Model, and performs controlled mid-call
// switchover with hysteresis: a backup must beat the active path by a
// configurable MOS margin for N consecutive probes before the call
// moves — the anti-relay-bounce discipline Skype lacks (Limit 3,
// "long stabilization time"). Relay death is detected by missed
// keepalives (bounded retries with exponential backoff before declaring
// failure) and handled by failing over to the best backup, re-running
// select-close-relay only when the backup list is exhausted.
package session

import (
	"fmt"
	"time"

	"asap/internal/netmodel"
	"asap/internal/transport"
)

// State is a session's position in the monitor state machine:
//
//	Active -> Degraded  (active-path MOS below the satisfaction floor)
//	Active/Degraded -> Switching -> Active   (hysteresis-approved switch)
//	any -> Failed       (keepalive misses exhausted; failover follows)
//	Failed -> Active    (failover landed on a backup)
//	any -> Closed       (call ended)
type State int

// Session states.
const (
	StateActive State = iota
	StateDegraded
	StateSwitching
	StateFailed
	StateClosed
)

// String renders the state for status output.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateDegraded:
		return "degraded"
	case StateSwitching:
		return "switching"
	case StateFailed:
		return "failed"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Candidate is one monitorable voice path: a relay address (empty =
// direct) and its setup-time RTT estimate.
type Candidate struct {
	Relay transport.Addr
	Est   time.Duration
}

// Sample is one monitor-probe measurement of one path. For the active
// path of a session with media attached, Loss is the blended (probe ∨
// media) loss the score used, and MediaLoss/Jitter carry the voice
// receiver's own window measurements.
type Sample struct {
	At    time.Duration
	Relay transport.Addr
	RTT   time.Duration
	Loss  float64
	MOS   float64
	OK    bool

	// MediaLoss is the voice stream's windowed loss fraction (0 when no
	// media window contributed to this sample).
	MediaLoss float64
	// Jitter is the voice stream's RFC 3550 interarrival jitter at
	// sample time (0 when no media window contributed).
	Jitter time.Duration
}

// Session is one live monitored call. All fields are guarded by the
// owning Manager's lock; read them through the accessor methods.
type Session struct {
	mgr *Manager

	id     uint64
	callee transport.Addr
	flowID uint64

	state     State
	active    Candidate
	backups   []Candidate
	backupBuf [4]Candidate // backs backups for a call's handful
	openedAt  time.Duration
	closedAt  time.Duration

	// Keepalive failure detection.
	kaMisses     int
	retryPending bool

	// Hysteresis bookkeeping: consecutive probes each backup beat the
	// active path by the switch margin, and each path's last probe MOS.
	streak  map[transport.Addr]int
	lastMOS map[transport.Addr]float64

	// Media-path accounting (see media.go): the attached voice-flow
	// poll, the previous tick's cumulative snapshot, and whether a
	// baseline window exists yet.
	media     MediaSource
	lastMedia MediaStats
	mediaSeen bool

	// onPathChange, when set, is invoked (on its own scheduler task,
	// outside the manager lock) every time the session's active path
	// moves — quality switch or failover — with the new relay address.
	// The media plane hooks this to re-run its traversal ladder against
	// the new relay (core.MediaCall.Reestablish).
	onPathChange func(newRelay transport.Addr)

	activeMOS float64
	switches  int
	failovers int
	mosSum    float64
	mosN      int
	history   []Sample
}

// OnPathChange installs the path-change hook. Pass nil to clear. The
// callback runs as its own scheduler task after the switch commits, so
// it may call back into the session or manager freely.
func (s *Session) OnPathChange(fn func(newRelay transport.Addr)) {
	s.mgr.mu.Lock()
	defer s.mgr.mu.Unlock()
	s.onPathChange = fn
}

// ID returns the session's manager-scoped identifier.
func (s *Session) ID() uint64 { return s.id }

// State returns the current monitor state.
func (s *Session) State() State {
	s.mgr.mu.Lock()
	defer s.mgr.mu.Unlock()
	return s.state
}

// Active returns the current voice path.
func (s *Session) Active() Candidate {
	s.mgr.mu.Lock()
	defer s.mgr.mu.Unlock()
	return s.active
}

// Switches returns the number of quality-driven path switches so far.
func (s *Session) Switches() int {
	s.mgr.mu.Lock()
	defer s.mgr.mu.Unlock()
	return s.switches
}

// Failovers returns the number of failure-driven path changes so far.
func (s *Session) Failovers() int {
	s.mgr.mu.Lock()
	defer s.mgr.mu.Unlock()
	return s.failovers
}

// LastMOS returns the most recent active-path MOS (0 before any probe).
func (s *Session) LastMOS() float64 {
	s.mgr.mu.Lock()
	defer s.mgr.mu.Unlock()
	return s.activeMOS
}

// History returns a copy of the bounded probe history.
func (s *Session) History() []Sample {
	s.mgr.mu.Lock()
	defer s.mgr.mu.Unlock()
	out := make([]Sample, len(s.history))
	copy(out, s.history)
	return out
}

// Report is a session's final (or in-progress) summary, the per-session
// line asapd prints on graceful shutdown.
type Report struct {
	ID         uint64
	Callee     transport.Addr
	Duration   time.Duration
	Switches   int
	Failovers  int
	MeanMOS    float64
	FinalState State
}

// String renders the report as one human-readable line.
func (r Report) String() string {
	return fmt.Sprintf("session %d -> %s: %v, %d switches, %d failovers, mean MOS %.2f, %s",
		r.ID, r.Callee, r.Duration.Round(time.Millisecond), r.Switches, r.Failovers, r.MeanMOS, r.FinalState)
}

func (s *Session) reportLocked(now time.Duration) Report {
	end := now
	if s.state == StateClosed {
		end = s.closedAt
	}
	mean := 0.0
	if s.mosN > 0 {
		mean = s.mosSum / float64(s.mosN)
	}
	return Report{
		ID:         s.id,
		Callee:     s.callee,
		Duration:   end - s.openedAt,
		Switches:   s.switches,
		Failovers:  s.failovers,
		MeanMOS:    mean,
		FinalState: s.state,
	}
}

// Status is a point-in-time view of a session for live display.
type Status struct {
	ID        uint64
	Callee    transport.Addr
	State     State
	Active    transport.Addr
	MOS       float64
	Switches  int
	Failovers int
	Backups   int
}

// String renders the status as one line.
func (st Status) String() string {
	path := string(st.Active)
	if path == "" {
		path = "direct"
	}
	return fmt.Sprintf("session %d -> %s: %s via %s, MOS %.2f, %d switches, %d failovers, %d backups",
		st.ID, st.Callee, st.State, path, st.MOS, st.Switches, st.Failovers, st.Backups)
}

func (s *Session) statusLocked() Status {
	return Status{
		ID:        s.id,
		Callee:    s.callee,
		State:     s.state,
		Active:    s.active.Relay,
		MOS:       s.activeMOS,
		Switches:  s.switches,
		Failovers: s.failovers,
		Backups:   len(s.backups),
	}
}

// degradedMOS is the active-path MOS below which a session is marked
// Degraded: the listener is no longer satisfied.
const degradedMOS = netmodel.SatisfactionMOS

// stateForMOS maps an active-path MOS onto Active/Degraded.
func (m *Manager) stateForMOS(mos float64) State {
	if mos < degradedMOS {
		return StateDegraded
	}
	return StateActive
}

// mosOf converts one probe measurement into a MOS under the session codec.
func (m *Manager) mosOf(rtt time.Duration, loss float64) float64 {
	return netmodel.MOSFromRTT(rtt, loss, netmodel.CodecG729A)
}
