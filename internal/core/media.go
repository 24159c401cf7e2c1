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
	n.mediaCfg = cfg
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
	flow     *udp.Flow
	peer     transport.Addr // control-plane peer address
	isCaller bool           // callers drive re-establishment; callees follow

	mu    sync.Mutex
	ext   transport.Addr // our STUN-discovered external media address
	relay transport.Addr // current voice relay (moves on re-establish)
	epoch uint32         // re-establishment round (MsgMediaReestablish)
	path  udp.PathKind
	err   error
	done  sim.Waiter
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

// finish records the ladder outcome and wakes any waiter.
func (mc *MediaCall) finish(k udp.PathKind, err error) {
	mc.mu.Lock()
	mc.path, mc.err = k, err
	w := mc.done
	mc.done = nil
	mc.mu.Unlock()
	if w != nil {
		w.Wake()
	}
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
// and climb the ladder ourselves. Blocks the calling scheduler task
// until the call lands on a rung — direct, punched or relayed — and
// returns the live call.
func (n *Node) SetupMedia(callee transport.Addr) (*MediaCall, error) {
	n.mu.Lock()
	ep, cfg := n.media, n.mediaCfg
	n.mu.Unlock()
	if ep == nil {
		return nil, fmt.Errorf("core: media plane not enabled")
	}
	token := n.newMediaToken()
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
	mc := &MediaCall{node: n, flow: flow, peer: callee, isCaller: true, ext: ext, relay: cfg.Relay}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = flow.Close()
		return nil, fmt.Errorf("core: node closed")
	}
	n.mediaCalls[token] = mc
	n.mu.Unlock()

	resp, err := n.retryCall(callee, &transport.Message{
		Type: transport.MsgMediaSetup, From: n.addr,
		MediaAddr: ext, MediaToken: token,
	})
	if err != nil {
		_ = mc.Close()
		return nil, fmt.Errorf("core: media setup: %w", err)
	}
	kind, err := flow.Establish(resp.MediaAddr, cfg.Relay, true)
	mc.finish(kind, err)
	if err != nil {
		_ = mc.Close()
		return nil, fmt.Errorf("core: media path: %w", err)
	}
	n.startMediaKeepalive(mc)
	return mc, nil
}

// handleMediaSetup is the callee half of SetupMedia: open our own media
// socket, discover its external address, start our half of the ladder in
// the background, and answer with the address. The handler blocks only
// for the STUN round trip, so the caller's reply is not delayed by the
// ladder itself — which is the point: both sides must climb
// simultaneously for hole punching to work, and the caller starts as
// soon as it has our address.
func (n *Node) handleMediaSetup(from transport.Addr, req *transport.Message) (*transport.Message, error) {
	n.mu.Lock()
	ep, cfg := n.media, n.mediaCfg
	prior := n.mediaCalls[req.MediaToken]
	n.mu.Unlock()
	if ep == nil {
		return nil, fmt.Errorf("core: media plane not enabled")
	}
	if prior != nil {
		// The caller's control-plane retry re-delivered the setup: the
		// ladder is already running; just re-answer.
		return &transport.Message{Type: transport.MsgMediaSetupReply, MediaAddr: prior.External()}, nil
	}
	flow, err := ep.Open(n.nextMediaAddr(), req.MediaToken)
	if err != nil {
		return nil, fmt.Errorf("core: media socket: %w", err)
	}
	if len(cfg.RelayKey) > 0 {
		flow.SetRelayAuth(udp.RelayProof(cfg.RelayKey, req.MediaToken))
	}
	ext, err := flow.Discover(cfg.STUN)
	if err != nil {
		_ = flow.Close()
		return nil, fmt.Errorf("core: media discovery: %w", err)
	}
	mc := &MediaCall{node: n, flow: flow, peer: from, ext: ext, relay: cfg.Relay}
	n.mu.Lock()
	if other := n.mediaCalls[req.MediaToken]; other != nil {
		// A concurrent retry beat us while we were discovering.
		n.mu.Unlock()
		_ = flow.Close()
		return &transport.Message{Type: transport.MsgMediaSetupReply, MediaAddr: other.External()}, nil
	}
	n.mediaCalls[req.MediaToken] = mc
	n.mu.Unlock()

	peerExt := req.MediaAddr
	if n.bgStart() {
		n.sched.Go(func() {
			defer n.bgDone()
			kind, err := flow.Establish(peerExt, cfg.Relay, false)
			mc.finish(kind, err)
			if err == nil {
				n.startMediaKeepalive(mc)
			}
		})
	}
	return &transport.Message{Type: transport.MsgMediaSetupReply, MediaAddr: ext}, nil
}

// --- Mid-call re-establishment ---

// Reestablish re-runs the traversal ladder mid-call against relay — the
// caller-side driver of media-plane resilience. It is invoked when the
// session monitor switches or fails over relays (Session.OnPathChange)
// or when keepalive silence declares the media path dead. The flow, its
// SSRC and its receive accounting survive: the peer sees one continuous
// stream and RFC 3550 stats span the switch. Blocks the calling
// scheduler task until the ladder lands (or fails). Only the caller
// drives — the callee's half runs from handleMediaReestablish.
func (mc *MediaCall) Reestablish(relay transport.Addr) (udp.PathKind, error) {
	if !mc.isCaller {
		return udp.PathNone, fmt.Errorf("core: only the calling side drives media re-establishment")
	}
	n := mc.node
	n.mu.Lock()
	cfg := n.mediaCfg
	n.mu.Unlock()

	// One epoch per attempt: control-plane retries of this round carry
	// the same number, so the callee acts once and re-answers duplicates.
	mc.mu.Lock()
	mc.epoch++
	epoch := mc.epoch
	mc.mu.Unlock()

	// Re-discover our external address — the very failure that brought us
	// here may have been a NAT rebind.
	ext, err := mc.flow.Discover(cfg.STUN)
	if err != nil {
		return udp.PathNone, fmt.Errorf("core: media re-discovery: %w", err)
	}
	mc.mu.Lock()
	mc.ext = ext
	mc.mu.Unlock()

	resp, err := n.retryCall(mc.peer, &transport.Message{
		Type: transport.MsgMediaReestablish, From: n.addr,
		MediaAddr: ext, MediaToken: mc.flow.SSRC(),
		MediaRelay: relay, MediaEpoch: epoch,
	})
	if err != nil {
		return udp.PathNone, fmt.Errorf("core: media re-establish: %w", err)
	}
	kind, err := mc.flow.Reestablish(resp.MediaAddr, relay, true)
	mc.finish(kind, err)
	if err == nil {
		mc.mu.Lock()
		mc.relay = relay
		mc.mu.Unlock()
	}
	return kind, err
}

// handleMediaReestablish is the callee half of Reestablish: bump the
// call's epoch (ignoring rounds already acted on — the idempotency the
// control plane's retries demand), re-discover our external address,
// restart our half of the ladder in the background against the new
// relay, and answer with the address. Like setup, the handler blocks
// only for the STUN round trip so both sides climb simultaneously.
func (n *Node) handleMediaReestablish(from transport.Addr, req *transport.Message) (*transport.Message, error) {
	n.mu.Lock()
	ep, cfg := n.media, n.mediaCfg
	mc := n.mediaCalls[req.MediaToken]
	n.mu.Unlock()
	if ep == nil {
		return nil, fmt.Errorf("core: media plane not enabled")
	}
	if mc == nil {
		return nil, fmt.Errorf("core: no media call for token %08x", req.MediaToken)
	}
	mc.mu.Lock()
	if req.MediaEpoch <= mc.epoch {
		// A retry of a round we already started (or an out-of-order
		// older round): our ladder half is running; just re-answer.
		ext := mc.ext
		mc.mu.Unlock()
		return &transport.Message{Type: transport.MsgMediaReestablishReply, MediaAddr: ext}, nil
	}
	mc.epoch = req.MediaEpoch
	mc.relay = req.MediaRelay
	mc.mu.Unlock()

	ext, err := mc.flow.Discover(cfg.STUN)
	if err != nil {
		return nil, fmt.Errorf("core: media re-discovery: %w", err)
	}
	mc.mu.Lock()
	mc.ext = ext
	mc.mu.Unlock()

	peerExt, relay := req.MediaAddr, req.MediaRelay
	if n.bgStart() {
		n.sched.Go(func() {
			defer n.bgDone()
			kind, err := mc.flow.Reestablish(peerExt, relay, false)
			mc.finish(kind, err)
		})
	}
	return &transport.Message{Type: transport.MsgMediaReestablishReply, MediaAddr: ext}, nil
}

// startMediaKeepalive arms the flow's liveness beacon per MediaConfig.
// Both endpoints beacon; only the caller reacts to silence, by
// re-running the ladder against the call's current relay — one driver
// per call, so the two sides cannot fight over the ladder.
func (n *Node) startMediaKeepalive(mc *MediaCall) {
	n.mu.Lock()
	cfg := n.mediaCfg
	n.mu.Unlock()
	if cfg.KeepaliveInterval <= 0 {
		return
	}
	misses := cfg.KeepaliveMisses
	if misses < 1 {
		misses = 3
	}
	var onSilent func()
	if mc.isCaller {
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
	mc.flow.StartKeepalive(cfg.KeepaliveInterval, misses, onSilent)
}
