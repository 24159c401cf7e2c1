package session

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// Driver performs the session layer's network operations. *core.Node
// implements it over the transport; tests script it.
type Driver interface {
	// ProbePath measures the voice path through relay (empty = direct)
	// to callee, returning its round trip and observed loss rate.
	ProbePath(relay, callee transport.Addr) (time.Duration, float64, error)
	// Keepalive verifies target is alive (and, when flowID is nonzero,
	// that it still holds the relay flow).
	Keepalive(target transport.Addr, flowID uint64) error
}

// Config tunes the monitor loop.
type Config struct {
	// ProbeInterval is the quality-monitor tick: every tick the active
	// path and up to Backups backup paths are probed and scored.
	ProbeInterval time.Duration
	// KeepaliveInterval is the relay-liveness cadence.
	KeepaliveInterval time.Duration
	// KeepaliveMisses is how many consecutive failed keepalives declare
	// the active relay dead.
	KeepaliveMisses int
	// KeepaliveBackoff is the first retry delay after a miss; each
	// further retry doubles it (bounded by KeepaliveMisses).
	KeepaliveBackoff time.Duration
	// SwitchMargin is the MOS margin a backup must beat the active path
	// by to count toward a switch.
	SwitchMargin float64
	// SwitchConsecutive is how many consecutive margin-beating probes a
	// backup needs before the call switches — the hysteresis that
	// prevents relay bounce. 1 degenerates to the naive best-MOS policy.
	SwitchConsecutive int
	// Backups is how many backup paths are probed per tick.
	Backups int
}

// historyLimit bounds the per-session probe history ring.
const historyLimit = 120

// DefaultConfig returns the monitor parameters used by asapd.
func DefaultConfig() Config {
	return Config{
		ProbeInterval:     2 * time.Second,
		KeepaliveInterval: time.Second,
		KeepaliveMisses:   3,
		KeepaliveBackoff:  500 * time.Millisecond,
		SwitchMargin:      0.3,
		SwitchConsecutive: 3,
		Backups:           3,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.ProbeInterval <= 0:
		return fmt.Errorf("session: ProbeInterval must be > 0")
	case c.KeepaliveInterval <= 0:
		return fmt.Errorf("session: KeepaliveInterval must be > 0")
	case c.KeepaliveMisses < 1:
		return fmt.Errorf("session: KeepaliveMisses must be >= 1")
	case c.KeepaliveBackoff <= 0:
		return fmt.Errorf("session: KeepaliveBackoff must be > 0")
	case c.SwitchMargin < 0:
		return fmt.Errorf("session: SwitchMargin must be >= 0")
	case c.SwitchConsecutive < 1:
		return fmt.Errorf("session: SwitchConsecutive must be >= 1")
	case c.Backups < 0:
		return fmt.Errorf("session: Backups must be >= 0")
	}
	return nil
}

// DetectionWindow is the worst-case delay from relay death to declared
// failure: a full keepalive interval until the first miss, then the
// bounded exponential retry chain.
func (c Config) DetectionWindow() time.Duration {
	w := c.KeepaliveInterval
	backoff := c.KeepaliveBackoff
	for i := 1; i < c.KeepaliveMisses; i++ {
		w += backoff
		backoff *= 2
	}
	return w
}

// Event is one state-machine transition, for live logs and tests.
type Event struct {
	At        time.Duration
	SessionID uint64
	Kind      string // open, switch, keepalive-miss, relay-failed, failover, reselect, no-path, closed
	// Relay is the path the event concerns: the new active path for
	// open/switch/failover, the dead one for relay-failed, the current
	// one for keepalive-miss.
	Relay  transport.Addr
	Detail string
}

// String renders the event as one log line.
func (e Event) String() string {
	return fmt.Sprintf("[%8v] session %d: %-14s %s", e.At.Round(time.Millisecond), e.SessionID, e.Kind, e.Detail)
}

// Option configures a Manager.
type Option func(*Manager)

// WithReselect installs the candidate-refresh hook called when a
// failover finds the backup list exhausted — in the live system this
// re-runs select-close-relay against the callee.
func WithReselect(fn func(callee transport.Addr) ([]Candidate, error)) Option {
	return func(m *Manager) { m.reselect = fn }
}

// WithEventLog installs an observer for session state transitions. It is
// invoked with the manager lock held; keep it fast and non-reentrant.
func WithEventLog(fn func(Event)) Option {
	return func(m *Manager) { m.onEvent = fn }
}

// WithFlowOpener installs the hook that opens a relay flow toward the
// callee when a switch or failover lands on a relay path, so keepalives
// assert the *new* relay's flow. core's (*Node).EnsureFlow matches the
// signature. Without it, post-switch keepalives degrade to plain
// liveness checks (flow ID 0).
func WithFlowOpener(fn func(relay, callee transport.Addr) (uint64, error)) Option {
	return func(m *Manager) { m.openFlow = fn }
}

// Manager tracks a node's open sessions and drives their monitor loops.
//
// Locking: one mutex guards all session state, but driver I/O happens
// outside it. Each probe tick snapshots the paths to measure under the
// lock, releases it while the per-session probes run concurrently, and
// reacquires it to commit the measurements in session-ID order — so a
// slow probe on one call never blocks another call's monitoring, and
// the commit order stays deterministic under the sim clock.
type Manager struct {
	cfg      Config
	clk      sim.Scheduler
	drv      Driver
	reselect func(callee transport.Addr) ([]Candidate, error)
	onEvent  func(Event)
	openFlow func(relay, callee transport.Addr) (uint64, error)

	mu       sync.Mutex
	sessions map[uint64]*Session
	nextID   uint64
	started  bool
	closed   bool
}

// NewManager builds a session manager over the given scheduler and
// driver. The scheduler is the shared time source of the whole stack: a
// *sim.Clock in tests and simulation, sim.NewWall() in asapd.
func NewManager(cfg Config, clk sim.Scheduler, drv Driver, opts ...Option) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clk == nil || drv == nil {
		return nil, fmt.Errorf("session: Manager needs a scheduler and a driver")
	}
	m := &Manager{cfg: cfg, clk: clk, drv: drv, sessions: make(map[uint64]*Session)}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// Open registers a live call: the active path plus the ranked backup
// candidates from call setup (the active path is filtered out if the
// caller left it in the list). flowID is the relay flow keepalives
// assert; pass 0 for direct paths.
func (m *Manager) Open(callee transport.Addr, active Candidate, backups []Candidate, flowID uint64) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("session: manager closed")
	}
	m.nextID++
	s := &Session{
		mgr:      m,
		id:       m.nextID,
		callee:   callee,
		flowID:   flowID,
		state:    StateActive,
		active:   active,
		openedAt: m.clk.Now(),
		streak:   make(map[transport.Addr]int),
		lastMOS:  make(map[transport.Addr]float64),
	}
	for _, b := range backups {
		if b.Relay == active.Relay {
			continue
		}
		s.backups = append(s.backups, b)
	}
	m.sessions[s.id] = s
	m.event(s, "open", active.Relay, fmt.Sprintf("via %s (%d backups)", pathName(active.Relay), len(s.backups)))
	return s, nil
}

// Start launches the probe and keepalive loops. Idempotent.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.closed {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	m.clk.After(m.cfg.ProbeInterval, m.probeTick)
	m.clk.After(m.cfg.KeepaliveInterval, m.keepaliveTick)
}

// Snapshot returns a point-in-time status of every open session, ordered
// by session ID.
func (m *Manager) Snapshot() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Status
	for _, s := range m.sortedLocked() {
		out = append(out, s.statusLocked())
	}
	return out
}

// Close ends every open session and stops the loops, returning the final
// per-session reports in ID order.
func (m *Manager) Close() []Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	var reports []Report
	for _, s := range m.sortedLocked() {
		reports = append(reports, m.closeLocked(s))
	}
	return reports
}

func (m *Manager) closeLocked(s *Session) Report {
	if s.state != StateClosed {
		s.state = StateClosed
		s.closedAt = m.clk.Now()
		m.event(s, "closed", s.active.Relay, "")
	}
	delete(m.sessions, s.id)
	return s.reportLocked(s.closedAt)
}

func (m *Manager) sortedLocked() []*Session {
	ids := make([]uint64, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*Session, len(ids))
	for i, id := range ids {
		out[i] = m.sessions[id]
	}
	return out
}

func (m *Manager) event(s *Session, kind string, relay transport.Addr, detail string) {
	if m.onEvent != nil {
		m.onEvent(Event{At: m.clk.Now(), SessionID: s.id, Kind: kind, Relay: relay, Detail: detail})
	}
}

func pathName(relay transport.Addr) string {
	if relay == "" {
		return "direct"
	}
	return string(relay)
}

// --- Quality monitor loop ---

// pathProbe is one planned path measurement and, after the probe phase,
// its result.
type pathProbe struct {
	cand Candidate
	rtt  time.Duration
	loss float64
	err  error
}

// probePlan is one session's snapshot of paths to measure this tick:
// paths[0] is the active path, the rest are the top backups. media is
// the session's voice-flow poll (nil when none attached); its snapshot
// is pulled during the I/O phase alongside the probes.
type probePlan struct {
	id     uint64
	callee transport.Addr
	paths  []pathProbe
	media  MediaSource
	mstats MediaStats
	mok    bool
}

// probeTick runs one monitor round in three phases: snapshot the paths
// to probe under the lock, run every session's driver probes outside it
// (concurrently across sessions), then commit the measurements under
// the lock in session-ID order.
func (m *Manager) probeTick() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	plans := make([]*probePlan, 0, len(m.sessions))
	for _, s := range m.sortedLocked() {
		if s.state == StateClosed {
			continue
		}
		p := &probePlan{id: s.id, callee: s.callee, media: s.media}
		p.paths = append(p.paths, pathProbe{cand: s.active})
		limit := m.cfg.Backups
		if limit > len(s.backups) {
			limit = len(s.backups)
		}
		for i := 0; i < limit; i++ {
			p.paths = append(p.paths, pathProbe{cand: s.backups[i]})
		}
		plans = append(plans, p)
	}
	m.mu.Unlock()

	bd, batched := m.drv.(BatchDriver)
	switch {
	case len(plans) == 0:
	case batched:
		// The driver coalesces the whole tick's probes per destination
		// (one MsgProbeBatch round trip each — see batch.go), so no
		// per-plan fan-out is needed here.
		m.runPlansBatched(bd, plans)
	case len(plans) == 1:
		m.runPlan(plans[0])
	default:
		// Fan out via the scheduler: genuinely concurrent on the wall
		// adapter, deterministically interleaved on the virtual clock.
		fns := make([]func(), len(plans))
		for i, p := range plans {
			p := p
			fns[i] = func() { m.runPlan(p) }
		}
		m.clk.Join(0, fns...)
	}

	m.mu.Lock()
	if !m.closed {
		now := m.clk.Now()
		for _, p := range plans { // already in session-ID order
			if s, ok := m.sessions[p.id]; ok && s.state != StateClosed {
				m.commitProbesLocked(s, p, now)
			}
		}
	}
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return
	}
	m.clk.After(m.cfg.ProbeInterval, m.probeTick)
}

// runPlan performs one session's driver probes, in path order. Called
// without the manager lock: a session's probes within the plan stay
// sequential, but different sessions' plans run concurrently.
func (m *Manager) runPlan(p *probePlan) {
	for i := range p.paths {
		pp := &p.paths[i]
		pp.rtt, pp.loss, pp.err = m.drv.ProbePath(pp.cand.Relay, p.callee)
	}
	if p.media != nil {
		p.mstats, p.mok = p.media()
	}
}

// commitProbesLocked applies one session's measured tick: score every
// path through the E-Model, update hysteresis streaks, and switch when
// a backup has qualified for SwitchConsecutive straight ticks.
func (m *Manager) commitProbesLocked(s *Session, p *probePlan, now time.Duration) {
	if s.active.Relay != p.paths[0].cand.Relay {
		// The active path changed while the probes were in flight (e.g. a
		// keepalive-retry failover): the measurements describe a path set
		// that no longer exists, so drop them rather than mis-attribute.
		return
	}
	activeMOS, activeOK := m.scoreActiveLocked(s, p, now)
	s.activeMOS = activeMOS
	s.mosSum += activeMOS
	s.mosN++

	bestIdx, bestMOS := -1, 0.0
	for _, pp := range p.paths[1:] {
		idx := backupIndexLocked(s, pp.cand.Relay)
		if idx < 0 {
			continue // no longer a backup; discard the measurement
		}
		mos, ok := m.scoreProbeLocked(s, pp, now)
		if ok && mos >= activeMOS+m.cfg.SwitchMargin {
			s.streak[pp.cand.Relay]++
		} else {
			s.streak[pp.cand.Relay] = 0
		}
		if s.streak[pp.cand.Relay] >= m.cfg.SwitchConsecutive && (bestIdx < 0 || mos > bestMOS) {
			bestIdx, bestMOS = idx, mos
		}
	}

	if s.state != StateFailed {
		s.state = m.stateForMOS(activeMOS)
		if !activeOK {
			s.state = StateDegraded
		}
	}

	if bestIdx >= 0 {
		m.switchToLocked(s, bestIdx, true)
	}
}

// backupIndexLocked finds a relay's current position in the backup list.
func backupIndexLocked(s *Session, relay transport.Addr) int {
	for i, b := range s.backups {
		if b.Relay == relay {
			return i
		}
	}
	return -1
}

// scoreProbeLocked records one measured path probe and its MOS; a failed
// probe scores the MOS floor so backups immediately outrank a dead
// active path (final authority on death stays with the keepalive
// machinery).
func (m *Manager) scoreProbeLocked(s *Session, pp pathProbe, now time.Duration) (float64, bool) {
	sample := Sample{At: now, Relay: pp.cand.Relay}
	if pp.err != nil {
		sample.MOS = 1
		m.recordLocked(s, sample)
		s.lastMOS[pp.cand.Relay] = 1
		return 1, false
	}
	mos := m.mosOf(pp.rtt, pp.loss)
	sample.RTT, sample.Loss, sample.MOS, sample.OK = pp.rtt, pp.loss, mos, true
	m.recordLocked(s, sample)
	s.lastMOS[pp.cand.Relay] = mos
	return mos, true
}

func (m *Manager) recordLocked(s *Session, sample Sample) {
	s.history = append(s.history, sample)
	if over := len(s.history) - historyLimit; over > 0 {
		s.history = s.history[over:]
	}
}

// switchToLocked moves the call to backups[idx]. Quality switches keep
// the displaced path as a backup; failovers drop it (the relay is dead).
func (m *Manager) switchToLocked(s *Session, idx int, quality bool) {
	next := s.backups[idx]
	old := s.active
	s.state = StateSwitching
	s.backups = append(s.backups[:idx], s.backups[idx+1:]...)
	if quality {
		s.backups = append(s.backups, old)
		s.switches++
		m.event(s, "switch", next.Relay, fmt.Sprintf("%s -> %s (MOS %.2f vs %.2f)",
			pathName(old.Relay), pathName(next.Relay), s.lastMOS[next.Relay], s.lastMOS[old.Relay]))
	} else {
		s.failovers++
		m.event(s, "failover", next.Relay, fmt.Sprintf("%s -> %s", pathName(old.Relay), pathName(next.Relay)))
	}
	s.active = next
	// The old relay's flow dies with the old path: open a flow on the new
	// relay so keepalives assert it, or fall back to plain liveness.
	s.flowID = 0
	if next.Relay != "" && m.openFlow != nil {
		if id, err := m.openFlow(next.Relay, s.callee); err == nil {
			s.flowID = id
		} else {
			m.event(s, "flow-open-failed", next.Relay, err.Error())
		}
	}
	s.kaMisses = 0
	for k := range s.streak {
		s.streak[k] = 0
	}
	if mos, ok := s.lastMOS[next.Relay]; ok {
		s.activeMOS = mos
		s.state = m.stateForMOS(mos)
	} else {
		s.state = StateActive
	}
	if fn := s.onPathChange; fn != nil {
		// Deliver on a fresh scheduler task: the hook re-runs the media
		// traversal ladder, which blocks and does I/O — neither belongs
		// under the manager lock.
		relay := next.Relay
		m.clk.After(0, func() { fn(relay) })
	}
}

// --- Keepalive / failure detection ---

// kaPlan is one session's keepalive target snapshot and, after the I/O
// phase, its verdict.
type kaPlan struct {
	id     uint64
	target transport.Addr
	flowID uint64
	err    error
}

// kaPlanLocked snapshots the session's current keepalive target: the
// active relay's flow, or plain callee liveness on a direct path.
func (m *Manager) kaPlanLocked(s *Session) *kaPlan {
	target, flowID := s.active.Relay, s.flowID
	if target == "" {
		target = s.callee
		flowID = 0
	}
	return &kaPlan{id: s.id, target: target, flowID: flowID}
}

// keepaliveTick mirrors probeTick's snapshot-I/O-commit shape: targets
// are snapshotted under the lock, the driver keepalives run outside it
// (concurrently across sessions), and the verdicts are committed in
// session-ID order.
func (m *Manager) keepaliveTick() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	plans := make([]*kaPlan, 0, len(m.sessions))
	for _, s := range m.sortedLocked() {
		if s.state == StateClosed || s.retryPending {
			continue
		}
		plans = append(plans, m.kaPlanLocked(s))
	}
	m.mu.Unlock()

	switch len(plans) {
	case 0:
	case 1:
		plans[0].err = m.drv.Keepalive(plans[0].target, plans[0].flowID)
	default:
		fns := make([]func(), len(plans))
		for i, p := range plans {
			p := p
			fns[i] = func() { p.err = m.drv.Keepalive(p.target, p.flowID) }
		}
		m.clk.Join(0, fns...)
	}

	m.mu.Lock()
	if !m.closed {
		for _, p := range plans {
			if s, ok := m.sessions[p.id]; ok && s.state != StateClosed && !s.retryPending {
				m.commitKeepaliveLocked(s, p)
			}
		}
	}
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return
	}
	m.clk.After(m.cfg.KeepaliveInterval, m.keepaliveTick)
}

// commitKeepaliveLocked applies one keepalive verdict to the session
// state machine.
func (m *Manager) commitKeepaliveLocked(s *Session, p *kaPlan) {
	if cur := m.kaPlanLocked(s); cur.target != p.target || cur.flowID != p.flowID {
		// The path changed while the keepalive was in flight: the verdict
		// concerns a target the session no longer depends on.
		return
	}
	if p.err == nil {
		s.kaMisses = 0
		if s.state == StateFailed {
			// The declared-dead path answered again (e.g. the callee of a
			// direct call restarted): resume monitoring.
			s.state = StateActive
			m.event(s, "recovered", s.active.Relay, pathName(s.active.Relay))
		}
		return
	}
	if s.state == StateFailed {
		// Already declared dead with nowhere to go; keep retrying the
		// reselect hook at keepalive cadence without re-announcing the
		// failure every tick.
		m.failActiveLocked(s)
		return
	}
	s.kaMisses++
	m.event(s, "keepalive-miss", s.active.Relay, fmt.Sprintf("%s (%d/%d)", pathName(s.active.Relay), s.kaMisses, m.cfg.KeepaliveMisses))
	if s.kaMisses >= m.cfg.KeepaliveMisses {
		m.failActiveLocked(s)
		return
	}
	// Bounded retry with exponential backoff before the next verdict.
	s.retryPending = true
	delay := m.cfg.KeepaliveBackoff << (s.kaMisses - 1)
	id := s.id
	m.clk.After(delay, func() { m.retryKeepalive(id) })
}

// retryKeepalive is the backoff re-check: snapshot the target, do the
// driver call outside the lock, commit the verdict.
func (m *Manager) retryKeepalive(id uint64) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if !ok || m.closed {
		m.mu.Unlock()
		return
	}
	s.retryPending = false
	if s.state == StateClosed {
		m.mu.Unlock()
		return
	}
	p := m.kaPlanLocked(s)
	m.mu.Unlock()

	p.err = m.drv.Keepalive(p.target, p.flowID)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	s, ok = m.sessions[id]
	if !ok || s.state == StateClosed || s.retryPending {
		return
	}
	m.commitKeepaliveLocked(s, p)
}

// failActiveLocked declares the active relay dead and fails over to the
// best backup, refreshing the candidate list via the reselect hook only
// when the backups are exhausted.
func (m *Manager) failActiveLocked(s *Session) {
	dead := s.active
	wasFailed := s.state == StateFailed
	s.state = StateFailed
	delete(s.lastMOS, dead.Relay)
	delete(s.streak, dead.Relay)
	if !wasFailed {
		m.event(s, "relay-failed", dead.Relay, pathName(dead.Relay))
	}

	if len(s.backups) == 0 && m.reselect != nil {
		cands, err := m.reselect(s.callee)
		if err != nil {
			// Repeated recovery attempts from an already-failed session
			// stay quiet; only the first failure announces its error.
			if !wasFailed {
				m.event(s, "reselect", "", fmt.Sprintf("error: %v", err))
			}
		} else {
			for _, c := range cands {
				if c.Relay == dead.Relay {
					continue
				}
				s.backups = append(s.backups, c)
			}
			if !wasFailed || len(s.backups) > 0 {
				m.event(s, "reselect", "", fmt.Sprintf("%d candidates", len(s.backups)))
			}
		}
	}
	if len(s.backups) == 0 {
		if !wasFailed {
			m.event(s, "no-path", "", "backups exhausted")
		}
		return
	}

	// Prefer the backup with the best recent probe MOS; fall back to the
	// setup-time estimate order (backups arrive est-sorted).
	best, bestMOS := 0, -1.0
	for i, b := range s.backups {
		if mos, ok := s.lastMOS[b.Relay]; ok && mos > bestMOS {
			best, bestMOS = i, mos
		}
	}
	m.switchToLocked(s, best, false)
}
