package core

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// Media role: the Node's voice data plane. The control plane (SetupCall,
// the session monitor) decides *which* relay a call should use; this
// file carries the actual voice datagrams there. A media-enabled node
// opens one UDP flow per call, discovers its external address via STUN,
// exchanges addresses with the callee over MsgMediaSetup, and both sides
// climb the traversal ladder (direct -> hole-punched -> relayed). The
// same handshake, at the next epoch, re-runs the ladder mid-call. The
// flow's receiver-side accounting then feeds the session monitor through
// MediaCall.MediaSource, so MOS-driven switchover reacts to what the
// voice path actually delivers.

// MediaConfig wires a Node to the voice data plane.
type MediaConfig struct {
	// Net is the packet network the node's media sockets bind on — a raw
	// UDP/Mem network, or a nat.Box when the node sits behind a NAT.
	Net transport.PacketNetwork
	// ListenHost is the host part of the node's media socket addresses
	// (the private address behind the NAT, or the live interface).
	ListenHost string
	// BasePort is the first media port; each call's flow binds the next
	// one. Zero means ":0" (OS-assigned — live UDP only; the in-memory
	// network needs explicit ports).
	BasePort int
	// STUN is the external-address discovery server on Net's public side.
	STUN transport.Addr
	// Relay is the voice relay for the ladder's last rung (empty = no
	// relay rung; calls that cannot punch fail).
	Relay transport.Addr
	// RelayKey is the relay's HMAC flow-token secret. When set, every
	// flow presents udp.RelayProof(RelayKey, token) in its relay binds,
	// which an authenticated relay (udp.RelayConfig.Secret) demands.
	// Empty means the relay is open.
	RelayKey []byte
	// KeepaliveInterval arms media-plane liveness beacons on every flow
	// (udp.Flow.StartKeepalive): both endpoints beacon at this cadence,
	// and KeepaliveMisses silent intervals declare the path dead — on
	// the caller side that triggers automatic re-establishment onto the
	// current relay. Zero disables keepalives (the seed behaviour).
	KeepaliveInterval time.Duration
	// KeepaliveMisses is the silence threshold in intervals (min 1;
	// default 3 when KeepaliveInterval is set).
	KeepaliveMisses int
}

// EnableMedia attaches the voice data plane to the node. Must be called
// before any SetupMedia, and before peers direct MsgMediaSetup at us.
func (n *Node) EnableMedia(cfg MediaConfig) error {
	if cfg.Net == nil {
		return fmt.Errorf("core: media needs a packet network")
	}
	if cfg.ListenHost == "" {
		return fmt.Errorf("core: media needs a listen host")
	}
	ep, err := udp.NewEndpoint(cfg.Net, n.sched, udp.DefaultConfig())
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("core: node closed")
	}
	n.media = ep
	n.mediaCfg = &cfg
	if n.mediaCalls == nil {
		n.mediaCalls = make(map[uint32]*MediaCall)
	}
	return nil
}

// nextMediaAddr allocates the next media socket address.
func (n *Node) nextMediaAddr() transport.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.mediaCfg.BasePort == 0 {
		return transport.Addr(n.mediaCfg.ListenHost + ":0")
	}
	port := n.mediaCfg.BasePort + n.mediaPorts
	n.mediaPorts++
	return transport.Addr(fmt.Sprintf("%s:%d", n.mediaCfg.ListenHost, port))
}

// newMediaToken derives a call token unique across this node's calls and
// (address-hashed) across nodes sharing one relay, without coordination.
func (n *Node) newMediaToken() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mediaSeq++
	h := fnv.New32a()
	_, _ = h.Write([]byte(n.addr))
	return h.Sum32() ^ (n.mediaSeq * 0x9e3779b9)
}

// MediaCall is one live voice flow between this node and a peer: the
// underlying UDP flow, the traversal outcome, and the discovered
// external address.
type MediaCall struct {
	node     *Node
	cfg      *MediaConfig // the node's media wiring when the call was opened
	flow     *udp.Flow
	peer     transport.Addr // control-plane peer address
	isCaller bool           // callers drive re-establishment; callees follow

	mu     sync.Mutex
	ext    transport.Addr // our STUN-discovered external media address
	relay  transport.Addr // current voice relay (moves on re-establish)
	rounds uint32         // handshake rounds begun: MsgMediaSetup epochs 0..rounds-1
	path   udp.PathKind
	err    error
	done   sim.Waiter
}

// Flow exposes the call's voice flow (send, stats, voice handler).
func (mc *MediaCall) Flow() *udp.Flow { return mc.flow }

// Peer returns the control-plane address of the call's other endpoint.
func (mc *MediaCall) Peer() transport.Addr { return mc.peer }

// External returns our discovered external media address (re-discovered
// on every re-establishment round).
func (mc *MediaCall) External() transport.Addr {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.ext
}

// Relay returns the voice relay the call currently binds (empty when the
// ladder has no relay rung).
func (mc *MediaCall) Relay() transport.Addr {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.relay
}

// Reestablishments reports how many mid-call re-establishments the
// call's flow has completed.
func (mc *MediaCall) Reestablishments() int64 { return mc.flow.Reestablishments() }

// Path returns the traversal outcome (PathNone while climbing).
func (mc *MediaCall) Path() udp.PathKind {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.path
}

// Established reports whether voice can flow.
func (mc *MediaCall) Established() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.path != udp.PathNone && mc.err == nil
}

// WaitEstablished parks the calling scheduler task until the traversal
// ladder finishes (or timeout elapses; timeout < 0 waits forever) and
// returns the outcome. The caller side of SetupMedia never needs it —
// SetupMedia already blocks — but the callee's ladder runs in the
// background, so callee code waits here before streaming.
func (mc *MediaCall) WaitEstablished(timeout time.Duration) (udp.PathKind, error) {
	mc.mu.Lock()
	if mc.path == udp.PathNone && mc.err == nil {
		if mc.done == nil {
			mc.done = mc.node.sched.NewWaiter()
		}
		w := mc.done
		mc.mu.Unlock()
		w.Wait(timeout)
		mc.mu.Lock()
	}
	defer mc.mu.Unlock()
	if mc.path == udp.PathNone && mc.err == nil {
		return udp.PathNone, fmt.Errorf("core: media establishment timed out")
	}
	return mc.path, mc.err
}

// Close tears the call down: forgets it on the node and shuts the flow's
// socket.
func (mc *MediaCall) Close() error {
	n := mc.node
	n.mu.Lock()
	delete(n.mediaCalls, mc.flow.SSRC())
	n.mu.Unlock()
	return mc.flow.Close()
}

// MediaSource adapts the call's receiver-side voice accounting to the
// session monitor's media contract: cumulative packets, sequence-gap
// loss and RFC 3550 jitter, reported only once voice can actually flow.
// Attach it with Session.AttachMedia so mid-call switchover reacts to
// measured media loss and jitter, not just control-plane probes.
func (mc *MediaCall) MediaSource() session.MediaSource {
	return func() (session.MediaStats, bool) {
		if !mc.Established() {
			return session.MediaStats{}, false
		}
		st := mc.flow.Stats()
		return session.MediaStats{Packets: st.Packets, Lost: st.Lost, Jitter: st.Jitter}, true
	}
}

// MediaCallWith returns the live media call with the given control-plane
// peer (nil if none).
func (n *Node) MediaCallWith(peer transport.Addr) *MediaCall {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, mc := range n.mediaCalls {
		if mc.peer == peer {
			return mc
		}
	}
	return nil
}

// SetupMedia establishes the voice data plane toward callee: open a
// fresh media socket, discover its external address, exchange addresses
// over the control plane (which starts the callee's half of the ladder),
// and climb the ladder ourselves — handshake round 0 of the call. Blocks
// the calling scheduler task until the call lands on a rung — direct,
// punched or relayed — and returns the live call.
func (n *Node) SetupMedia(callee transport.Addr) (*MediaCall, error) {
	mc, err := n.openMediaCall(n.newMediaToken(), callee, true)
	if err != nil {
		return nil, err
	}
	if _, err := mc.negotiate(""); err != nil {
		_ = mc.Close()
		return nil, err
	}
	return mc, nil
}

// Reestablish re-runs the traversal ladder mid-call against relay — the
// caller-side driver of media-plane resilience, and the call's next
// handshake round. It is invoked when the session monitor switches or
// fails over relays (Session.OnPathChange) or when keepalive silence
// declares the media path dead. The flow, its SSRC and its receive
// accounting survive: the peer sees one continuous stream and RFC 3550
// stats span the switch. Blocks the calling scheduler task until the
// ladder lands or fails (the call stays open). Only the caller drives.
func (mc *MediaCall) Reestablish(relay transport.Addr) (udp.PathKind, error) {
	if !mc.isCaller {
		return udp.PathNone, fmt.Errorf("core: only the calling side drives media re-establishment")
	}
	return mc.negotiate(relay)
}

// openMediaCall opens and registers this node's half of call token: a
// fresh media socket, its relay proof, its external address. If a
// concurrent duplicate of the offer registered the token meanwhile, that
// call is returned and the spare socket closed.
func (n *Node) openMediaCall(token uint32, peer transport.Addr, isCaller bool) (*MediaCall, error) {
	n.mu.Lock()
	ep, cfg := n.media, n.mediaCfg
	n.mu.Unlock()
	if ep == nil {
		return nil, fmt.Errorf("core: media plane not enabled")
	}
	flow, err := ep.Open(n.nextMediaAddr(), token)
	if err != nil {
		return nil, fmt.Errorf("core: media socket: %w", err)
	}
	if len(cfg.RelayKey) > 0 {
		flow.SetRelayAuth(udp.RelayProof(cfg.RelayKey, token))
	}
	ext, err := flow.Discover(cfg.STUN)
	if err != nil {
		_ = flow.Close()
		return nil, fmt.Errorf("core: media discovery: %w", err)
	}
	mc := &MediaCall{node: n, cfg: cfg, flow: flow, peer: peer, isCaller: isCaller, ext: ext}
	n.mu.Lock()
	closed, other := n.closed, n.mediaCalls[token]
	if !closed && other == nil {
		n.mediaCalls[token] = mc
	}
	n.mu.Unlock()
	switch {
	case closed:
		_ = flow.Close()
		return nil, fmt.Errorf("core: node closed")
	case other != nil:
		_ = flow.Close()
		return other, nil
	}
	return mc, nil
}

// offerAddr returns the external address to offer in round epoch: the
// one discovered at open in round 0, a fresh discovery later — the very
// failure that forced the round may have been a NAT rebind.
func (mc *MediaCall) offerAddr(epoch uint32) (transport.Addr, error) {
	if epoch == 0 {
		return mc.External(), nil
	}
	ext, err := mc.flow.Discover(mc.cfg.STUN)
	if err != nil {
		return "", fmt.Errorf("core: media re-discovery: %w", err)
	}
	mc.mu.Lock()
	mc.ext = ext
	mc.mu.Unlock()
	return ext, nil
}

// negotiate is the caller half of one handshake round: offer our
// external address at the next epoch, learn the callee's, and climb the
// ladder against relay (empty = each side's configured relay). Control
// retries of a round carry the same epoch, so the callee acts once per
// round and re-answers duplicates.
func (mc *MediaCall) negotiate(relay transport.Addr) (udp.PathKind, error) {
	mc.mu.Lock()
	epoch := mc.rounds
	mc.rounds++
	mc.mu.Unlock()
	ext, err := mc.offerAddr(epoch)
	if err != nil {
		return udp.PathNone, err
	}
	resp, err := mc.node.retryCall(mc.peer, &transport.Message{
		Type: transport.MsgMediaSetup, From: mc.node.addr,
		MediaAddr: ext, MediaToken: mc.flow.SSRC(),
		MediaRelay: relay, MediaEpoch: epoch,
	})
	if err != nil {
		return udp.PathNone, fmt.Errorf("core: media setup: %w", err)
	}
	return mc.climb(epoch, resp.MediaAddr, relay, true)
}

// climb runs this side's half of round epoch's ladder — round 0
// establishes the flow, later rounds re-establish it in place — records
// the outcome, wakes any waiter and, on success, arms the keepalive.
func (mc *MediaCall) climb(epoch uint32, peerExt, relay transport.Addr, caller bool) (udp.PathKind, error) {
	if relay == "" {
		relay = mc.cfg.Relay
	}
	var kind udp.PathKind
	var err error
	if epoch == 0 {
		kind, err = mc.flow.Establish(peerExt, relay, caller)
	} else {
		kind, err = mc.flow.Reestablish(peerExt, relay, caller)
	}
	mc.mu.Lock()
	mc.path, mc.err = kind, err
	if err == nil {
		mc.relay = relay
	}
	w := mc.done
	mc.done = nil
	mc.mu.Unlock()
	if w != nil {
		w.Wake()
	}
	if err != nil {
		return kind, fmt.Errorf("core: media path: %w", err)
	}
	mc.armKeepalive()
	return kind, nil
}

// armKeepalive arms the flow's liveness beacon per MediaConfig (a no-op
// once armed). Both endpoints beacon; only the caller reacts to silence,
// by running another round against the call's current relay — one driver
// per call, so the two sides cannot fight over the ladder.
func (mc *MediaCall) armKeepalive() {
	if mc.cfg.KeepaliveInterval <= 0 {
		return
	}
	misses := mc.cfg.KeepaliveMisses
	if misses < 1 {
		misses = 3
	}
	var onSilent func()
	if mc.isCaller {
		n := mc.node
		onSilent = func() {
			if !n.bgStart() {
				return
			}
			n.sched.Go(func() {
				defer n.bgDone()
				_, _ = mc.Reestablish(mc.Relay())
			})
		}
	}
	mc.flow.StartKeepalive(mc.cfg.KeepaliveInterval, misses, onSilent)
}

// handleMediaSetup is the callee half of a handshake round. Epoch 0 of
// an unknown token opens the call; a round already begun — a control
// retry, an older round, a concurrent retry that lost the race to open —
// is re-answered without touching the ladder, the idempotency retries
// demand. Otherwise our half of the ladder starts in the background and
// the handler blocks only for the STUN round trip: both sides must climb
// simultaneously for hole punching to work, and the caller starts as
// soon as it has our address.
func (n *Node) handleMediaSetup(from transport.Addr, req *transport.Message) (*transport.Message, error) {
	n.mu.Lock()
	mc := n.mediaCalls[req.MediaToken]
	n.mu.Unlock()
	if mc == nil {
		if req.MediaEpoch > 0 {
			return nil, fmt.Errorf("core: no media call for token %08x", req.MediaToken)
		}
		var err error
		if mc, err = n.openMediaCall(req.MediaToken, from, false); err != nil {
			return nil, err
		}
	}
	mc.mu.Lock()
	ext, begun := mc.ext, req.MediaEpoch < mc.rounds
	mc.rounds = max(mc.rounds, req.MediaEpoch+1)
	mc.mu.Unlock()
	if !begun {
		var err error
		if ext, err = mc.offerAddr(req.MediaEpoch); err != nil {
			return nil, err
		}
		epoch, peerExt, relay := req.MediaEpoch, req.MediaAddr, req.MediaRelay
		if n.bgStart() {
			n.sched.Go(func() {
				defer n.bgDone()
				_, _ = mc.climb(epoch, peerExt, relay, false)
			})
		}
	}
	return &transport.Message{Type: transport.MsgMediaSetupReply, MediaAddr: ext}, nil
}
