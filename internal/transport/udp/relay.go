package udp

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// RelayServer is the last rung of the traversal ladder: when hole
// punching fails (symmetric NATs), both endpoints bind the same flow
// token on a relay outside their NATs and the relay forwards each
// side's voice packets to the other. The handshake follows the
// relay↔listener shape of PenguinCast's relay2peer protocol — both
// parties announce themselves (PTRelayBind, re-sent as keepalive until
// confirmed), the relay answers PTRelayBound once it has seen both, and
// voice flows immediately after — except the flow identity rides the
// packet SSRC field instead of a separate header, so relayed voice
// packets are byte-identical to punched ones.
//
// Lifecycle hardening (DESIGN.md §13): a relay on a real network cannot
// trust binders forever. Three defenses compose here:
//
//   - HMAC flow-token proof: when the relay holds a Secret, every
//     PTRelayBind must carry RelayProof(secret, ssrc) in its payload.
//     The control plane mints the secret and hands the proof to the two
//     call endpoints, so a third party that merely observes (or guesses)
//     the 32-bit token cannot bind it. Bad proofs answer PTRelayReject.
//   - Quotas: one source host may hold at most MaxFlowsPerSource live
//     flows, and the relay as a whole creates no flow past
//     maxRelayFlows, so even an open relay's table is bounded; binds
//     past either quota answer PTRelayReject so the binder abandons the
//     rung instead of retrying into a stone wall. A second party
//     pairing an existing flow creates no entry and is never refused by
//     the relay-wide cap.
//   - Keepalive expiry: every bind, voice or keepalive packet refreshes
//     its flow's expiry clock; a sweep on the injected sim.Scheduler
//     evicts flows idle longer than FlowTTL (endpoint death, NAT rebind,
//     or a peer that never sent PTRelayUnbind). With no FlowTTL the
//     sweep is off and only explicit unbinds reclaim state.
//
// In ASAP terms the relay is the chosen close-relay surrogate: the
// control plane (MsgMediaSetup) distributes the token and proof; the
// data plane here only verifies and forwards. The relay mints no
// tokens: a flow entry comes to exist on its token's first bind.
type RelayServer struct {
	conn  transport.PacketConn
	sched sim.Scheduler
	cfg   RelayConfig

	mu        sync.Mutex
	closed    bool
	flows     map[uint32]*relayFlow
	bySource  map[string]int // live flows per binder host (quota accounting)
	forwarded int64
	quotaRej  int64
	authRej   int64
	onEvent   func(RelayEvent)
}

// RelayConfig tunes the relay's lifecycle defenses. The zero value is an
// open relay: no auth, no per-source quota, no expiry — only the
// relay-wide maxRelayFlows cap bounds its table.
type RelayConfig struct {
	// FlowTTL evicts flows that carried no packet for this long
	// (0 = never expire); the expiry sweep runs every FlowTTL/2.
	FlowTTL time.Duration
	// MaxFlowsPerSource caps the live flows one source host may bind
	// (0 = unlimited).
	MaxFlowsPerSource int
	// Secret is the HMAC key for flow-token proofs (nil = open relay:
	// any bind is accepted, the seed behaviour).
	Secret []byte
}

// RelayEvent is one observable lifecycle transition, for logs and tests.
type RelayEvent struct {
	At    time.Duration
	Kind  string // bind, bound, unbind, expire, quota-reject, auth-reject
	Token uint32
	Addr  transport.Addr
}

// String renders the event as one log line.
func (e RelayEvent) String() string {
	return fmt.Sprintf("[%8v] relay flow %08x: %-12s %s", e.At.Round(time.Millisecond), e.Token, e.Kind, e.Addr)
}

// relayFlow is one bound pair. a is the first endpoint to bind; bound
// flips when the second arrives. lastSeen is the expiry clock, refreshed
// by any packet of the flow.
type relayFlow struct {
	a, b     transport.Addr
	bound    bool
	lastSeen time.Duration
}

// maxRelayFlows caps the relay's flow table: a bind that would create
// one more flow is refused as a quota rejection. It matches the
// control-plane relay table's cap in core.
const maxRelayFlows = 65536

// relayProofLen is the truncated HMAC-SHA256 length carried in
// PTRelayBind payloads — 16 bytes keeps the bind datagram small while
// leaving preimage work far beyond a voice call's lifetime.
const relayProofLen = 16

// RelayProof computes the flow-token proof for ssrc under secret: the
// first relayProofLen bytes of HMAC-SHA256(secret, ssrc). The control
// plane mints secret, derives the proof per call, and ships it to both
// endpoints; the relay recomputes and compares. The returned slice is
// the only allocation.
func RelayProof(secret []byte, ssrc uint32) []byte {
	mac := relayMAC(secret, ssrc)
	return append([]byte(nil), mac[:relayProofLen]...)
}

// relayMAC is HMAC-SHA256(secret, ssrc big-endian) per RFC 2104,
// computed over fixed-size arrays so nothing escapes: a key longer than
// the 64-byte SHA-256 block is hashed first, then
// H((K ^ opad) || H((K ^ ipad) || ssrc)).
func relayMAC(secret []byte, ssrc uint32) [sha256.Size]byte {
	const block = 64
	var key [block]byte
	if len(secret) > block {
		sum := sha256.Sum256(secret)
		copy(key[:], sum[:])
	} else {
		copy(key[:], secret)
	}
	var inner [block + 4]byte
	var outer [block + sha256.Size]byte
	for i, k := range key {
		inner[i] = k ^ 0x36
		outer[i] = k ^ 0x5c
	}
	binary.BigEndian.PutUint32(inner[block:], ssrc)
	sum := sha256.Sum256(inner[:])
	copy(outer[block:], sum[:])
	return sha256.Sum256(outer[:])
}

// NewRelayServerWith binds a voice relay on addr over pnet: sched is its
// clock (a sim.Clock in tests, sim.NewWall() live), which stamps events
// and drives the expiry sweep, and cfg sets the lifecycle defenses.
func NewRelayServerWith(pnet transport.PacketNetwork, addr transport.Addr, sched sim.Scheduler, cfg RelayConfig) (*RelayServer, error) {
	if sched == nil {
		return nil, fmt.Errorf("udp: relay needs a scheduler")
	}
	r := &RelayServer{
		sched:    sched,
		cfg:      cfg,
		flows:    make(map[uint32]*relayFlow),
		bySource: make(map[string]int),
	}
	conn, err := pnet.ListenPacket(addr, r.handle)
	if err != nil {
		return nil, fmt.Errorf("udp: relay listen: %w", err)
	}
	r.conn = conn
	if cfg.FlowTTL > 0 {
		sched.After(cfg.FlowTTL/2, r.sweep)
	}
	return r, nil
}

// SetEventLog installs an observer for relay lifecycle transitions. It
// is invoked with the relay lock held; keep it fast and non-reentrant.
func (r *RelayServer) SetEventLog(fn func(RelayEvent)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvent = fn
}

func (r *RelayServer) eventLocked(kind string, token uint32, addr transport.Addr) {
	if r.onEvent != nil {
		r.onEvent(RelayEvent{At: r.sched.Now(), Kind: kind, Token: token, Addr: addr})
	}
}

// Addr returns the relay's bound address.
func (r *RelayServer) Addr() transport.Addr { return r.conn.LocalAddr() }

// Close stops the relay and its sweep.
func (r *RelayServer) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.conn.Close()
}

// Forwarded reports the number of voice packets relayed so far.
func (r *RelayServer) Forwarded() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.forwarded
}

// LiveFlows reports the number of flow entries currently held — the
// number the churn soak drives back to zero.
func (r *RelayServer) LiveFlows() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.flows)
}

// QuotaRejections reports binds refused for exceeding the per-source
// flow quota or the relay-wide flow cap.
func (r *RelayServer) QuotaRejections() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quotaRej
}

// AuthRejections reports binds refused for a missing or invalid
// flow-token proof.
func (r *RelayServer) AuthRejections() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.authRej
}

// sweep evicts flows whose expiry clock is older than FlowTTL, in token
// order (deterministic event output), then re-arms itself.
func (r *RelayServer) sweep() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	now := r.sched.Now()
	var dead []uint32
	for tok, f := range r.flows {
		if now-f.lastSeen >= r.cfg.FlowTTL {
			dead = append(dead, tok)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	for _, tok := range dead {
		r.dropLocked(tok, "expire", r.flows[tok].a)
	}
	r.mu.Unlock()
	r.sched.After(r.cfg.FlowTTL/2, r.sweep)
}

// dropLocked removes one flow and releases its quota slots.
func (r *RelayServer) dropLocked(tok uint32, kind string, addr transport.Addr) {
	f := r.flows[tok]
	if f == nil {
		return
	}
	delete(r.flows, tok)
	for _, end := range []transport.Addr{f.a, f.b} {
		if end == "" {
			continue
		}
		h := sourceHost(end)
		if n := r.bySource[h]; n <= 1 {
			delete(r.bySource, h)
		} else {
			r.bySource[h] = n - 1
		}
	}
	r.eventLocked(kind, tok, addr)
}

// sourceHost strips the port for quota accounting: one NAT (one public
// IP) gets one budget no matter how many ports it cycles through.
func sourceHost(a transport.Addr) string {
	s := string(a)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ':' {
			return s[:i]
		}
	}
	return s
}

// handle is the relay's packet loop: binds register endpoints (proof and
// quota checked first), voice and keepalives refresh the expiry clock
// and forward to the flow's other party, unbinds drop the entry. All
// I/O happens outside the lock (snapshot, unlock, write — the lockio
// discipline).
func (r *RelayServer) handle(from transport.Addr, data []byte) {
	p, err := Parse(data)
	if err != nil {
		return
	}
	switch p.Type {
	case PTRelayBind:
		r.handleBind(from, p)

	case PTRelayUnbind:
		r.mu.Lock()
		f := r.flows[p.SSRC]
		if f == nil || (from != f.a && from != f.b) {
			// Only a bound party may release the flow; an impostor's
			// unbind (it cannot know both addresses) is ignored.
			r.mu.Unlock()
			return
		}
		r.dropLocked(p.SSRC, "unbind", from)
		r.mu.Unlock()

	case PTVoice, PTKeepalive:
		r.mu.Lock()
		f := r.flows[p.SSRC]
		var dst transport.Addr
		if f != nil && f.bound {
			switch from {
			case f.a:
				dst = f.b
			case f.b:
				dst = f.a
			}
		}
		if dst != "" {
			f.lastSeen = r.sched.Now()
			if p.Type == PTVoice {
				r.forwarded++
			}
		}
		r.mu.Unlock()
		if dst == "" {
			return // unknown flow or unbound: drop, as a relay must
		}
		// Forward the datagram unchanged: seq, timestamp and SSRC are
		// end-to-end, so receiver-side jitter math spans the whole path.
		_ = r.conn.WriteTo(dst, data)
	}
}

// proofOK checks a bind's flow-token proof in constant time against one
// recomputed on the stack.
func (r *RelayServer) proofOK(p Packet) bool {
	mac := relayMAC(r.cfg.Secret, p.SSRC)
	return hmac.Equal(p.Payload, mac[:relayProofLen])
}

// handleBind runs the bind admission pipeline: proof, then quotas, then
// pairing. Rejections answer PTRelayReject so the binder can abandon
// the relay rung immediately.
func (r *RelayServer) handleBind(from transport.Addr, p Packet) {
	if len(r.cfg.Secret) > 0 && !r.proofOK(p) {
		r.mu.Lock()
		r.authRej++
		r.eventLocked("auth-reject", p.SSRC, from)
		r.mu.Unlock()
		r.reject(from, p)
		return
	}

	r.mu.Lock()
	f := r.flows[p.SSRC]
	newFlow := f == nil
	rebinding := !newFlow && (f.a == from || f.b == from)
	if (newFlow && len(r.flows) >= maxRelayFlows) ||
		(!rebinding && r.cfg.MaxFlowsPerSource > 0 && r.bySource[sourceHost(from)] >= r.cfg.MaxFlowsPerSource) {
		r.quotaRej++
		r.eventLocked("quota-reject", p.SSRC, from)
		r.mu.Unlock()
		r.reject(from, p)
		return
	}
	switch {
	case newFlow:
		f = &relayFlow{a: from}
		r.flows[p.SSRC] = f
		r.bySource[sourceHost(from)]++
		r.eventLocked("bind", p.SSRC, from)
	case rebinding:
		// A bind retry: refresh below, and re-confirm once bound.
	case f.b == "":
		f.b = from
		r.bySource[sourceHost(from)]++
		r.eventLocked("bind", p.SSRC, from)
	default:
		// Two parties already hold the flow; a third is an impostor
		// (with a valid proof it is a replaying observer — still out).
		r.mu.Unlock()
		return
	}
	wasBound := f.bound
	f.bound = f.a != "" && f.b != ""
	f.lastSeen = r.sched.Now()
	if f.bound && !wasBound {
		r.eventLocked("bound", p.SSRC, from)
	}
	a, b, bound := f.a, f.b, f.bound
	r.mu.Unlock()
	if !bound {
		return // first binder waits; its retries keep the bind alive
	}
	// Confirm to both parties (idempotent: bind retries re-confirm).
	resp := Packet{Type: PTRelayBound, Seq: p.Seq, SSRC: p.SSRC}
	_ = writePacket(r.conn, a, resp)
	_ = writePacket(r.conn, b, resp)
}

// reject answers one refused bind.
func (r *RelayServer) reject(to transport.Addr, p Packet) {
	_ = writePacket(r.conn, to, Packet{Type: PTRelayReject, Seq: p.Seq, SSRC: p.SSRC})
}
