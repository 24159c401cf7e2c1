package udp

import (
	"fmt"
	"time"

	"sync"

	"asap/internal/sim"
	"asap/internal/transport"
)

// PathKind classifies how a flow's media path was established — the rung
// of the traversal ladder the call landed on.
type PathKind int

// Traversal outcomes, in escalation order.
const (
	// PathNone: not established.
	PathNone PathKind = iota
	// PathDirect: the first unassisted send got through (callee
	// reachable, e.g. full-cone or no NAT).
	PathDirect
	// PathPunched: simultaneous-open hole punching opened the path.
	PathPunched
	// PathRelayed: both sides fell back to a voice relay.
	PathRelayed
)

// String renders the path kind for logs and reports.
func (k PathKind) String() string {
	switch k {
	case PathNone:
		return "none"
	case PathDirect:
		return "direct"
	case PathPunched:
		return "punched"
	case PathRelayed:
		return "relayed"
	default:
		return fmt.Sprintf("path(%d)", int(k))
	}
}

// Config tunes the traversal ladder. All durations are scheduler time:
// virtual in simulation, real in the live daemon.
type Config struct {
	// StunTries and StunInterval pace external-address discovery
	// retries (each datagram may be lost).
	StunTries    int
	StunInterval time.Duration
	// DirectBudget is the phase-1 window: the caller sends unassisted
	// Syns while the callee listens. If the callee's NAT admits them,
	// the call goes direct.
	DirectBudget time.Duration
	// PunchBudget is the phase-2 window: both sides Syn simultaneously.
	PunchBudget time.Duration
	// PunchInterval is the initial Syn retry interval; it doubles per
	// retry (capped at PunchInterval*8) so early losses recover fast
	// without flooding.
	PunchInterval time.Duration
	// RelayBudget is the phase-3 window for the relay bind handshake.
	RelayBudget time.Duration
}

// DefaultConfig returns ladder parameters tuned for LAN-scale RTTs.
func DefaultConfig() Config {
	return Config{
		StunTries:     5,
		StunInterval:  150 * time.Millisecond,
		DirectBudget:  400 * time.Millisecond,
		PunchBudget:   1600 * time.Millisecond,
		PunchInterval: 50 * time.Millisecond,
		RelayBudget:   1600 * time.Millisecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.StunTries < 1:
		return fmt.Errorf("udp: StunTries must be >= 1")
	case c.StunInterval <= 0:
		return fmt.Errorf("udp: StunInterval must be > 0")
	case c.DirectBudget <= 0:
		return fmt.Errorf("udp: DirectBudget must be > 0")
	case c.PunchBudget <= 0:
		return fmt.Errorf("udp: PunchBudget must be > 0")
	case c.PunchInterval <= 0:
		return fmt.Errorf("udp: PunchInterval must be > 0")
	case c.RelayBudget <= 0:
		return fmt.Errorf("udp: RelayBudget must be > 0")
	}
	return nil
}

// Endpoint opens per-call voice flows over one packet network. It is
// cheap: all state lives in the flows.
type Endpoint struct {
	pnet  transport.PacketNetwork
	sched sim.Scheduler
	cfg   Config
}

// NewEndpoint builds a data-plane endpoint over pnet. sched is the
// shared time source (a *sim.Clock in tests, sim.NewWall() live).
func NewEndpoint(pnet transport.PacketNetwork, sched sim.Scheduler, cfg Config) (*Endpoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pnet == nil || sched == nil {
		return nil, fmt.Errorf("udp: Endpoint needs a packet network and a scheduler")
	}
	return &Endpoint{pnet: pnet, sched: sched, cfg: cfg}, nil
}

// Open binds a fresh socket for one voice flow. Every flow gets its own
// socket — its own NAT mapping, its own queue — which is both what hole
// punching needs and what keeps one congested call from blocking
// another. ssrc is the flow identity carried in every packet (and the
// relay token when the ladder falls through to a relay).
func (e *Endpoint) Open(local transport.Addr, ssrc uint32) (*Flow, error) {
	f := &Flow{
		sched: e.sched,
		cfg:   e.cfg,
		ssrc:  ssrc,
	}
	conn, err := e.pnet.ListenPacket(local, f.dispatch)
	if err != nil {
		return nil, err
	}
	f.conn = conn
	return f, nil
}

// Flow is one call's voice stream: a socket, a peer (once established),
// and receiver-side accounting. Establish and Discover block the
// calling scheduler task; SendVoice never blocks.
type Flow struct {
	conn  transport.PacketConn
	sched sim.Scheduler
	cfg   Config
	ssrc  uint32

	mu          sync.Mutex
	closed      bool
	established bool
	climbing    bool // a ladder run (enterLadder) is in progress
	path        PathKind
	phase       PathKind       // ladder rung currently being attempted
	peer        transport.Addr // voice destination (peer or relay)
	relay       transport.Addr
	relayProof  []byte     // HMAC flow-token proof carried in PTRelayBind
	relayReject bool       // relay refused our bind (quota or auth)
	estW        sim.Waiter // armed by the phase loops, woken on establish

	stunW    sim.Waiter
	stunSeq  uint32
	stunAddr transport.Addr

	seq     uint32 // next voice sequence number
	sent    int64
	reest   int64 // completed mid-call re-establishments
	onVoice func(p Packet, from transport.Addr)

	// Keepalive / silence detection (StartKeepalive).
	kaTimer     sim.Timer
	kaInterval  time.Duration
	kaMisses    int
	kaSeq       uint32
	lastRecv    time.Duration // scheduler offset of the last inbound packet
	silentFired bool          // onSilent fired for the current silence episode
	onSilent    func()

	rx rxState
}

// LocalAddr returns the flow's bound (private) address.
func (f *Flow) LocalAddr() transport.Addr { return f.conn.LocalAddr() }

// SSRC returns the flow identity.
func (f *Flow) SSRC() uint32 { return f.ssrc }

// Path returns the established path kind (PathNone before Establish).
func (f *Flow) Path() PathKind {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.path
}

// Peer returns the current voice destination.
func (f *Flow) Peer() transport.Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peer
}

// SetVoiceHandler installs a callback for inbound voice packets, invoked
// after accounting. The packet payload is only valid during the call.
func (f *Flow) SetVoiceHandler(fn func(p Packet, from transport.Addr)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onVoice = fn
}

// SetRelayAuth installs the HMAC flow-token proof (RelayProof) the flow
// presents when binding an authenticated relay. The control plane mints
// the relay secret and derives the proof per call; without one, binds to
// a secret-bearing relay are rejected.
func (f *Flow) SetRelayAuth(proof []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.relayProof = append([]byte(nil), proof...)
}

// Reestablishments reports how many mid-call re-establishments the flow
// has completed.
func (f *Flow) Reestablishments() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reest
}

// Close shuts the flow down: it releases any relay binding (PTRelayUnbind,
// so the relay reclaims the flow entry immediately instead of waiting for
// TTL expiry), stops the keepalive timer, wakes every parked ladder or
// discovery task, and closes the socket. Close is idempotent and safe to
// call concurrently with Establish, Reestablish, dispatch and keepalive
// ticks: the first caller wins, the rest return nil.
func (f *Flow) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	estW, stunW, ka := f.estW, f.stunW, f.kaTimer
	f.estW, f.stunW, f.kaTimer = nil, nil, nil
	relay := f.relay
	f.mu.Unlock()

	if estW != nil {
		estW.Wake()
	}
	if stunW != nil {
		stunW.Wake()
	}
	if ka != nil {
		ka.Stop()
	}
	if relay != "" {
		// Best-effort: the datagram may be lost, in which case the
		// relay's keepalive TTL is the backstop.
		f.sendUnbind(relay)
	}
	return f.conn.Close()
}

// sendUnbind tells relay to drop our half of the flow. I/O only — no
// flow state is touched (lockio: callers must not hold f.mu).
func (f *Flow) sendUnbind(relay transport.Addr) {
	buf := GetBuf()
	p := Packet{Type: PTRelayUnbind, TS: f.sched.Now(), SSRC: f.ssrc}
	buf = p.AppendTo(buf)
	_ = f.conn.WriteTo(relay, buf)
	PutBuf(buf)
}

// --- Discovery ---

// Discover asks the STUN server for this socket's external address,
// retrying lost datagrams. The answer is only meaningful for this
// socket: NAT mappings are per-socket (and, behind a symmetric NAT,
// per-destination — which is exactly why punching fails there and the
// ladder needs its relay rung).
func (f *Flow) Discover(stun transport.Addr) (transport.Addr, error) {
	for i := 0; i < f.cfg.StunTries; i++ {
		f.mu.Lock()
		f.stunSeq++
		seq := f.stunSeq
		f.stunAddr = ""
		w := f.sched.NewWaiter()
		f.stunW = w
		f.mu.Unlock()

		buf := GetBuf()
		req := Packet{Type: PTStunReq, Seq: seq, TS: f.sched.Now(), SSRC: f.ssrc}
		buf = req.AppendTo(buf)
		err := f.conn.WriteTo(stun, buf)
		PutBuf(buf)
		if err != nil {
			return "", err
		}
		if w.Wait(f.cfg.StunInterval) {
			f.mu.Lock()
			addr := f.stunAddr
			f.mu.Unlock()
			if addr != "" {
				return addr, nil
			}
		}
	}
	return "", fmt.Errorf("udp: discovery via %s timed out after %d tries", stun, f.cfg.StunTries)
}

// --- Establishment ladder ---

// Establish climbs the traversal ladder toward peer (the peer's
// discovered external address): direct → punched → relayed. Caller and
// callee both invoke it with the same phase budgets after exchanging
// external addresses over the control plane; only the caller actively
// Syns during the direct phase (the callee answers), then both punch
// simultaneously, then both bind relay (empty relay = skip that rung).
// It returns the rung the flow landed on — at once when an early Syn
// already established the passive side.
func (f *Flow) Establish(peer, relay transport.Addr, caller bool) (PathKind, error) {
	return f.enterLadder(peer, relay, caller, false)
}

// Reestablish re-runs the traversal ladder mid-call — after the session
// monitor switched relays, or after keepalive silence — without tearing
// the flow down: the socket, SSRC, send sequence and receive accounting
// all survive, so RFC 3550 stats span the switch and the receiver sees
// one continuous stream. peer is the peer's freshly re-discovered
// external address; relay the (possibly new) relay. Callers re-exchange
// addresses over the control plane first (MsgMediaSetup at the next
// epoch), exactly as at setup.
func (f *Flow) Reestablish(peer, relay transport.Addr, caller bool) (PathKind, error) {
	return f.enterLadder(peer, relay, caller, true)
}

// enterLadder is the one guarded entry to climb. again (Reestablish)
// drops the flow back to PathNone first, unbinds a replaced relay and
// counts a successful climb. A concurrent run is refused rather than
// queued — control retries re-invoke on their own cadence.
func (f *Flow) enterLadder(peer, relay transport.Addr, caller, again bool) (PathKind, error) {
	f.mu.Lock()
	if f.established && !again {
		p := f.path
		f.mu.Unlock()
		return p, nil
	}
	if f.closed {
		f.mu.Unlock()
		return PathNone, transport.ErrPacketClosed
	}
	if f.climbing {
		f.mu.Unlock()
		return PathNone, fmt.Errorf("udp: flow %d establishment already in progress", f.ssrc)
	}
	f.climbing = true
	oldRelay := transport.Addr("")
	if again {
		if f.path == PathRelayed && f.relay != "" && f.relay != relay {
			oldRelay = f.relay // release the dead rung's binding, best-effort
		}
		f.established = false
		f.path = PathNone
		f.phase = PathNone
		f.silentFired = false
		f.lastRecv = f.sched.Now() // silence clock restarts with the ladder
	}
	f.relayReject = false
	f.peer = peer
	f.relay = relay
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.climbing = false
		f.mu.Unlock()
	}()

	if oldRelay != "" {
		f.sendUnbind(oldRelay)
	}
	kind, err := f.climb(peer, relay, caller)
	if again && err == nil {
		f.mu.Lock()
		f.reest++
		f.mu.Unlock()
	}
	return kind, err
}

// climb runs the three-rung ladder. Callers hold the climbing guard.
func (f *Flow) climb(peer, relay transport.Addr, caller bool) (PathKind, error) {
	// Phase 1 — direct: only the caller sends; a callee that Syn'd too
	// would already be punching. If the callee's NAT admits unsolicited
	// datagrams the Ack comes straight back.
	if caller {
		if f.synLoop(PathDirect, f.cfg.DirectBudget, PTSyn) {
			return f.Path(), nil
		}
	} else if f.waitPhase(PathDirect, f.cfg.DirectBudget) {
		return f.Path(), nil
	}

	// Phase 2 — simultaneous open: both sides Syn. Outbound datagrams
	// open each NAT's own mapping; whichever inbound Syn or Ack lands
	// first proves the hole.
	if f.synLoop(PathPunched, f.cfg.PunchBudget, PTSyn) {
		return f.Path(), nil
	}

	// Phase 3 — relay: both sides bind the flow token on the relay and
	// wait for its confirmation.
	if relay != "" {
		if f.synLoop(PathRelayed, f.cfg.RelayBudget, PTRelayBind) {
			return f.Path(), nil
		}
		f.mu.Lock()
		rejected := f.relayReject
		f.mu.Unlock()
		if rejected {
			return PathNone, fmt.Errorf("udp: relay %s rejected flow %d (quota or auth)", relay, f.ssrc)
		}
	}
	return PathNone, fmt.Errorf("udp: no path to %s (direct, punch and relay all failed)", peer)
}

// synLoop drives one ladder phase: send the phase's packet to its target
// on a doubling retry interval until the flow establishes or the budget
// runs out. Reports whether the flow established during the phase.
func (f *Flow) synLoop(phase PathKind, budget time.Duration, pt PacketType) bool {
	deadline := f.sched.Now() + budget
	interval := f.cfg.PunchInterval
	maxInterval := f.cfg.PunchInterval * 8
	var attempt uint32
	for {
		f.mu.Lock()
		if f.established || f.closed {
			est := f.established
			f.mu.Unlock()
			return est
		}
		if pt == PTRelayBind && f.relayReject {
			// The relay said no (quota or bad proof); retrying would only
			// burn the budget against a firm refusal.
			f.mu.Unlock()
			return false
		}
		f.phase = phase
		w := f.sched.NewWaiter()
		f.estW = w
		to := f.peer
		var payload []byte
		if pt == PTRelayBind {
			to = f.relay
			payload = f.relayProof // proof of token ownership, if minted
		}
		f.mu.Unlock()

		attempt++
		buf := GetBuf()
		p := Packet{Type: pt, Seq: attempt, TS: f.sched.Now(), SSRC: f.ssrc, Payload: payload}
		buf = p.AppendTo(buf)
		_ = f.conn.WriteTo(to, buf) // loss is the medium's prerogative
		PutBuf(buf)

		remaining := deadline - f.sched.Now()
		if remaining <= 0 {
			return f.isEstablished()
		}
		wait := interval
		if wait > remaining {
			wait = remaining
		}
		if w.Wait(wait) {
			return f.isEstablished()
		}
		if interval < maxInterval {
			interval *= 2
		}
	}
}

// waitPhase parks the callee for one passive phase: established (woken
// by dispatch) or budget exhausted.
func (f *Flow) waitPhase(phase PathKind, budget time.Duration) bool {
	f.mu.Lock()
	if f.established {
		f.mu.Unlock()
		return true
	}
	f.phase = phase
	w := f.sched.NewWaiter()
	f.estW = w
	f.mu.Unlock()
	w.Wait(budget)
	return f.isEstablished()
}

func (f *Flow) isEstablished() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.established
}

// establishLocked marks the flow open on the current ladder rung toward
// dest, waking the parked phase loop.
func (f *Flow) establishLocked(dest transport.Addr, kind PathKind) {
	if f.established {
		return
	}
	f.established = true
	f.path = kind
	f.peer = dest
	if f.estW != nil {
		f.estW.Wake()
		f.estW = nil
	}
}

// --- Voice ---

// SendVoice transmits one voice payload (a frame batch) on the
// established path. It stamps seq, the scheduler-offset timestamp, and
// the flow SSRC, encodes into a pooled buffer and fires the datagram —
// never blocking on delivery.
func (f *Flow) SendVoice(payload []byte) error {
	f.mu.Lock()
	if !f.established {
		f.mu.Unlock()
		return fmt.Errorf("udp: flow %d not established", f.ssrc)
	}
	if f.closed {
		f.mu.Unlock()
		return transport.ErrPacketClosed
	}
	f.seq++
	seq := f.seq
	to := f.peer
	f.sent++
	f.mu.Unlock()

	buf := GetBuf()
	p := Packet{Type: PTVoice, Seq: seq, TS: f.sched.Now(), SSRC: f.ssrc, Payload: payload}
	buf = p.AppendTo(buf)
	err := f.conn.WriteTo(to, buf)
	PutBuf(buf)
	return err
}

// Sent reports the number of voice packets sent.
func (f *Flow) Sent() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent
}

// --- Keepalive / silence detection ---

// StartKeepalive arms the media-plane liveness beacon. Every interval
// the flow sends a PTKeepalive to its current destination (once
// established) — which also refreshes the relay's flow TTL when the
// path is relayed — and checks for silence: if no media-path packet
// (voice, keepalive or punch traffic) has arrived for misses intervals,
// onSilent fires once per silence episode, from its own scheduler task.
// The episode re-arms when traffic resumes or the flow re-establishes;
// the timer chain stops at Close. Calling StartKeepalive twice is a
// no-op.
func (f *Flow) StartKeepalive(interval time.Duration, misses int, onSilent func()) {
	if interval <= 0 || misses < 1 {
		return
	}
	f.mu.Lock()
	if f.closed || f.kaTimer != nil {
		f.mu.Unlock()
		return
	}
	f.kaInterval = interval
	f.kaMisses = misses
	f.onSilent = onSilent
	f.lastRecv = f.sched.Now()
	f.kaTimer = f.sched.AfterFunc(interval, f.kaTick)
	f.mu.Unlock()
}

// kaTick is one beat of the keepalive chain: send, check silence,
// re-arm. All I/O and the onSilent callback run outside the lock.
func (f *Flow) kaTick() {
	f.mu.Lock()
	if f.closed || f.kaTimer == nil {
		f.mu.Unlock()
		return
	}
	now := f.sched.Now()
	var to transport.Addr
	if f.established {
		to = f.peer
	}
	var fire func()
	if f.established && !f.climbing && !f.silentFired &&
		now-f.lastRecv >= f.kaInterval*time.Duration(f.kaMisses) {
		f.silentFired = true
		fire = f.onSilent
	}
	f.kaSeq++
	seq := f.kaSeq
	f.kaTimer = f.sched.AfterFunc(f.kaInterval, f.kaTick)
	f.mu.Unlock()

	if to != "" {
		buf := GetBuf()
		p := Packet{Type: PTKeepalive, Seq: seq, TS: f.sched.Now(), SSRC: f.ssrc}
		buf = p.AppendTo(buf)
		_ = f.conn.WriteTo(to, buf)
		PutBuf(buf)
	}
	if fire != nil {
		fire()
	}
}

// --- Inbound dispatch ---

// dispatch is the flow's packet loop. It answers discovery and punch
// traffic and accounts voice. Establishment rules:
//
//   - an inbound Syn proves the peer can reach us; the Ack we return
//     travels the reverse permission our reply creates, so receiving a
//     Syn establishes the flow toward the *observed* source — the
//     adaptation that lets punching survive a symmetric NAT on the far
//     side (the Syn arrives from a port nobody predicted).
//   - an inbound Ack proves our own Syn got through.
//   - PTRelayBound redirects the flow's voice to the relay.
func (f *Flow) dispatch(from transport.Addr, data []byte) {
	p, err := Parse(data)
	if err != nil || p.SSRC != f.ssrc {
		return
	}
	if p.Type != PTStunResp && p.Type != PTRelayReject {
		// Any media-path packet — voice, keepalive, punch traffic —
		// counts as liveness and re-arms silence detection. STUN answers
		// and relay refusals come from infrastructure, not the path.
		f.mu.Lock()
		f.lastRecv = f.sched.Now()
		f.silentFired = false
		f.mu.Unlock()
	}
	switch p.Type {
	case PTStunResp:
		f.mu.Lock()
		if p.Seq == f.stunSeq && f.stunW != nil {
			f.stunAddr = transport.Addr(p.Payload)
			f.stunW.Wake()
			f.stunW = nil
		}
		f.mu.Unlock()

	case PTSyn:
		f.mu.Lock()
		kind := f.phase
		if kind == PathNone {
			kind = PathDirect // passive side hit before its ladder started
		}
		f.establishLocked(from, kind)
		f.mu.Unlock()
		buf := GetBuf()
		ack := Packet{Type: PTAck, Seq: p.Seq, TS: f.sched.Now(), SSRC: f.ssrc}
		buf = ack.AppendTo(buf)
		_ = f.conn.WriteTo(from, buf)
		PutBuf(buf)

	case PTAck:
		f.mu.Lock()
		kind := f.phase
		if kind == PathNone {
			kind = PathDirect
		}
		f.establishLocked(from, kind)
		f.mu.Unlock()

	case PTRelayBound:
		f.mu.Lock()
		if f.relay != "" {
			f.establishLocked(f.relay, PathRelayed)
		}
		f.mu.Unlock()

	case PTRelayReject:
		f.mu.Lock()
		var w sim.Waiter
		if f.phase == PathRelayed && !f.established {
			f.relayReject = true
			w, f.estW = f.estW, nil // abort the bind loop immediately
		}
		f.mu.Unlock()
		if w != nil {
			w.Wake()
		}

	case PTKeepalive:
		// Liveness already recorded above; nothing else to do.

	case PTVoice:
		now := f.sched.Now()
		f.mu.Lock()
		f.rx.account(p, now)
		fn := f.onVoice
		f.mu.Unlock()
		if fn != nil {
			fn(p, from)
		}
	}
}

// --- Receiver-side accounting ---

// rxState tracks what the listener actually received, RTP-receiver
// style: sequence-gap loss, late arrivals (reorders), duplicates, and
// RFC 3550 §6.4.1 interarrival jitter computed from the send timestamps
// (scheduler offsets; only differences are used, so sender and receiver
// clocks need no common origin).
type rxState struct {
	started     bool
	highestSeq  uint32
	packets     int64
	bytes       int64
	lost        int64
	reordered   int64
	duplicates  int64
	lastTransit time.Duration
	jitter      time.Duration
	// seen is the late-arrival dedup memory: a ring bitmap over the
	// rxDedupWindow sequence numbers ending at highestSeq, bit
	// seq%rxDedupWindow set when seq was heard.
	seen [rxDedupWindow / 64]uint64
}

// rxDedupWindow bounds the duplicate-detection memory. It must divide
// 2^32 so that seq%rxDedupWindow stays contiguous across uint32 wrap.
const rxDedupWindow = 512

// heard reports whether seq (at or below highestSeq) is remembered. A
// datagram older than the window is not: it re-counts as a late arrival
// at worst.
func (r *rxState) heard(seq uint32) bool {
	if r.highestSeq-seq >= rxDedupWindow {
		return false
	}
	i := seq % rxDedupWindow
	return r.seen[i>>6]&(1<<(i&63)) != 0
}

// mark remembers seq, which must lie inside the window ending at
// highestSeq.
func (r *rxState) mark(seq uint32) {
	i := seq % rxDedupWindow
	r.seen[i>>6] |= 1 << (i & 63)
}

// advance slides the window's top up to seq, forgetting the sequence
// numbers whose ring slots the new ones take over. The loop counts the
// gap instead of comparing sequence numbers, so it terminates across
// uint32 wrap.
func (r *rxState) advance(seq uint32) {
	gap := seq - r.highestSeq
	if gap >= rxDedupWindow {
		r.seen = [rxDedupWindow / 64]uint64{}
	} else {
		for k := uint32(1); k <= gap; k++ {
			i := (r.highestSeq + k) % rxDedupWindow
			r.seen[i>>6] &^= 1 << (i & 63)
		}
	}
	r.highestSeq = seq
}

func (r *rxState) account(p Packet, arrival time.Duration) {
	if r.started && p.Seq <= r.highestSeq && r.heard(p.Seq) {
		// A pure duplicate carries no new timing information: count it
		// and keep it out of the jitter estimator.
		r.duplicates++
		return
	}
	transit := arrival - p.TS
	if r.started {
		d := transit - r.lastTransit
		if d < 0 {
			d = -d
		}
		// J += (|D| - J) / 16 — RFC 3550's noise-smoothed estimator.
		r.jitter += (d - r.jitter) / 16
	}
	r.lastTransit = transit
	switch {
	case !r.started:
		r.started = true
		r.highestSeq = p.Seq
	case p.Seq == r.highestSeq+1, p.Seq > r.highestSeq:
		// The first form also takes the step across uint32 wrap.
		r.lost += int64(p.Seq - r.highestSeq - 1) // 0 when next in sequence
		r.advance(p.Seq)
	default: // p.Seq < highestSeq and unseen: a late (reordered) arrival
		r.reordered++
		if r.lost > 0 {
			r.lost-- // a frame previously counted lost arrived after all
		}
	}
	if r.highestSeq-p.Seq < rxDedupWindow {
		r.mark(p.Seq) // a late arrival from beyond the window has no slot
	}
	r.packets++
	r.bytes += int64(len(p.Payload))
}

// RxStats is a snapshot of receiver-side accounting.
type RxStats struct {
	// Packets and Bytes count received voice (payload bytes).
	Packets, Bytes int64
	// Lost is the sequence-gap estimate of network loss.
	Lost int64
	// Reordered and Duplicates count out-of-order and repeated arrivals.
	Reordered, Duplicates int64
	// Jitter is the RFC 3550 interarrival jitter estimate.
	Jitter time.Duration
}

// Loss returns the cumulative loss fraction in [0,1].
func (s RxStats) Loss() float64 {
	total := s.Packets + s.Lost
	if total == 0 {
		return 0
	}
	return float64(s.Lost) / float64(total)
}

// Stats snapshots the flow's receiver-side accounting.
func (f *Flow) Stats() RxStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rx.stats()
}

func (r *rxState) stats() RxStats {
	return RxStats{
		Packets:    r.packets,
		Bytes:      r.bytes,
		Lost:       r.lost,
		Reordered:  r.reordered,
		Duplicates: r.duplicates,
		Jitter:     r.jitter,
	}
}
