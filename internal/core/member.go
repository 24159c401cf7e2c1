package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"asap/internal/asgraph"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// Member role: the Node actor's identity, lifecycle and cluster-membership
// duties — joining via the bootstrap, publishing nodal info, volunteering
// as surrogate, lease renewal and re-election — plus the inbound message
// dispatch shared by every role.

// NodeConfig configures an end-host/surrogate actor.
type NodeConfig struct {
	// IP is the node's VoIP-overlay IP address (used for clustering).
	IP string
	// Bootstrap is the bootstrap server's address.
	Bootstrap transport.Addr
	// Params are the protocol parameters (K is enforced bootstrap-side).
	Params Params
	// Nodal is the node's published capability information.
	Nodal transport.NodalInfo
	// Retry schedules control-plane retries; the zero value means
	// DefaultRetryPolicy.
	Retry RetryPolicy
	// Sched is the node's time source: a *sim.Clock in simulation, the
	// wall adapter in the live daemon. Nil means real time.
	Sched sim.Scheduler
	// Seed roots the node's retry-jitter stream, which a backoff draws
	// only under a RetryPolicy that sets Jitter. No deployment here sets
	// it, so today the seed changes no timing or outcome.
	Seed int64
}

// Node is a peer actor: always an end host, and surrogate of its cluster
// when it is the cluster's first or best member.
type Node struct {
	cfg    NodeConfig
	tr     transport.Transport
	addr   transport.Addr
	retry  RetryPolicy
	sched  sim.Scheduler
	ctx    context.Context
	cancel context.CancelFunc

	jitterDraws atomic.Uint64 // retry-jitter draws taken so far (see jitter)

	mu         sync.Mutex
	closed     bool
	bg         int        // in-flight background tasks (renewal ticks, re-elections)
	closeW     sim.Waiter // armed by Close to wait for bg to drain
	renewTimer sim.Timer  // pending lease-renewal tick
	asn        asgraph.ASN
	clusterKey string
	surrogate  transport.Addr // my cluster's surrogate (may be self)
	isSurro    bool
	leaseTTL   time.Duration // bootstrap's lease lifetime (0 = no leases)
	rejoining  bool          // background re-election running
	// closeSet is replaced whole by RefreshCloseSet and never written
	// through, so handlers and CloseSet hand it out without copying.
	closeSet []transport.CloseEntry
	// flows is the control-plane relay table (relay role), by flow ID;
	// flowIdx finds the flow a repeated open already has.
	flows      map[uint64]relayFlow
	flowIdx    map[relayKey]uint64
	nextFlowID uint64
	// received collects voice payload sizes per sending peer (callee
	// role). Keyed by sender address: the terminal hop always carries
	// FlowID 0, so a flow-keyed map would merge concurrent callers.
	received map[transport.Addr]int
	// outFlows caches the flow opened on each relay per callee, so voice
	// sends and keepalives share one relay flow per call.
	outFlows map[flowKey]outFlow
	// Voice data plane (media.go): per-call UDP endpoint, its wiring, the
	// next media port offset, live calls by flow token, and the token
	// sequence.
	media      *udp.Endpoint
	mediaCfg   *MediaConfig // never written through: each call keeps the one it was opened under
	mediaPorts int
	mediaCalls map[uint32]*MediaCall
	mediaSeq   uint32
	fan        *fan // the idle fan-out scratch (ProbePaths, MsgProbeBatch)
}

// relayKey identifies a relay flow by who opened it and where it forwards.
type relayKey struct{ from, dst transport.Addr }

// relayFlow is one relay-table entry, and when it last carried an open,
// a keepalive or a voice batch (a scheduler offset).
type relayFlow struct {
	relayKey
	lastSeen time.Duration
}

// The relay table is something a stranger can make this node hold, so it
// is bounded: at maxRelayFlows an open first reclaims flows idle longer
// than relayFlowIdle and is refused if none were. The cap sits well
// above honest traffic (the busiest node held 456 flows on call_sim and
// 105 on the ladder's 10^5-node rung, each until it idled out);
// relayFlowIdle is many keepalive intervals, so a monitored call is
// never the one reclaimed.
const (
	maxRelayFlows = 65536
	relayFlowIdle = 30 * time.Second
)

// handleRelayOpen answers with from's relay flow toward req.Dst, opening
// it if need be. MsgRelayOpen is delivered at least once, so a repeat
// open refreshes the flow it already made rather than leaving an orphan
// that nothing keepalives. req.FlowID names a flow the caller dropped: if
// it is the one held, it is released for a fresh one — which is what a
// duplicate of that request then finds.
func (n *Node) handleRelayOpen(from transport.Addr, req *transport.Message) (*transport.Message, error) {
	now := n.sched.Now()
	key := relayKey{from: from, dst: req.Dst}
	n.mu.Lock()
	defer n.mu.Unlock()
	id, ok := n.flowIdx[key]
	if ok && id == req.FlowID {
		delete(n.flows, id)
		ok = false
	}
	if !ok {
		if len(n.flows) >= maxRelayFlows {
			for id, f := range n.flows {
				if now-f.lastSeen > relayFlowIdle {
					delete(n.flows, id)
					delete(n.flowIdx, f.relayKey)
				}
			}
		}
		if len(n.flows) >= maxRelayFlows {
			return nil, fmt.Errorf("core: relay table full (%d flows)", maxRelayFlows)
		}
		if n.flows == nil {
			n.flows = make(map[uint64]relayFlow)
			n.flowIdx = make(map[relayKey]uint64)
		}
		n.nextFlowID++
		id = n.nextFlowID
		n.flowIdx[key] = id
	}
	n.flows[id] = relayFlow{relayKey: key, lastSeen: now}
	resp := transport.AcquireMessage()
	resp.Type, resp.FlowID = transport.MsgRelayOpenReply, id
	return resp, nil
}

// touchFlow refreshes a relay flow's idle clock and returns where it
// forwards to; ok is false for a flow this node does not hold.
func (n *Node) touchFlow(id uint64) (dst transport.Addr, ok bool) {
	now := n.sched.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.flows[id]
	if ok {
		f.lastSeen = now
		n.flows[id] = f
	}
	return f.dst, ok
}

// flowKey identifies an outbound relay flow: which relay, toward whom.
type flowKey struct {
	relay  transport.Addr
	callee transport.Addr
}

// outFlow is a cached outbound relay flow. dropped marks one given up
// (DropFlow); its ID is kept for the next open to name as replaced.
type outFlow struct {
	id      uint64
	dropped bool
}

// NewNode builds and serves a peer on addr, then joins: the join is the
// node's first re-election (end-host duties 1-3, see reelect), so a
// joiner and a member whose surrogate died take the same path.
func NewNode(tr transport.Transport, addr transport.Addr, cfg NodeConfig) (*Node, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	// Role maps (flows, received, outFlows) stay nil until first written,
	// and retry jitter holds no generator (see jitter): most of a
	// million-node deployment's residents never relay, take a call or
	// retry, and three empty maps and a math/rand source are 5.6 KB a node
	// (48 B a map, 5.4 KB the source, go 1.24).
	n := &Node{
		cfg:   cfg,
		tr:    tr,
		retry: cfg.Retry.withDefaults(),
		sched: sim.OrWall(cfg.Sched),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	bound, err := tr.Serve(addr, n.handle)
	if err != nil {
		return nil, err
	}
	n.addr = bound
	if _, err := n.reelect(); err != nil {
		return nil, err
	}
	return n, nil
}

// Addr returns the node's bound address.
func (n *Node) Addr() transport.Addr { return n.addr }

// ClusterKey returns the node's prefix-cluster identity.
func (n *Node) ClusterKey() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.clusterKey
}

// IsSurrogate reports whether the node currently serves its cluster.
func (n *Node) IsSurrogate() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.isSurro
}

// Surrogate returns the cluster surrogate this node currently follows
// (its own address when it serves the cluster itself).
func (n *Node) Surrogate() transport.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.surrogate
}

// Close stops the node's background loops (lease renewal, pending
// re-elections), closes its media calls, whose sockets and keepalive
// beacons would otherwise outlive it, and cancels in-flight retries. The
// transport binding is left to the transport's own Close. Draining waits
// on a scheduler Waiter rather than a raw WaitGroup, so under the virtual
// clock the caller's task parks and the background tasks can actually
// finish.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	if n.renewTimer != nil {
		n.renewTimer.Stop()
		n.renewTimer = nil
	}
	var w sim.Waiter
	if n.bg > 0 {
		w = n.sched.NewWaiter()
		n.closeW = w
	}
	calls := make([]*MediaCall, 0, len(n.mediaCalls))
	for _, mc := range n.mediaCalls {
		calls = append(calls, mc)
	}
	n.mu.Unlock()
	// In token order, so that the unbinds are reproducible under the
	// virtual clock. MediaCall.Close takes n.mu.
	slices.SortFunc(calls, func(a, b *MediaCall) int { return cmp.Compare(a.flow.SSRC(), b.flow.SSRC()) })
	for _, mc := range calls {
		_ = mc.Close()
	}
	n.cancel()
	if w != nil {
		w.Wait(-1)
	}
}

// bgStart registers a background task unless the node is closed; bgDone
// retires it and releases a pending Close once the last one drains.
func (n *Node) bgStart() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.bg++
	return true
}

func (n *Node) bgDone() {
	n.mu.Lock()
	n.bg--
	var w sim.Waiter
	if n.closed && n.bg == 0 {
		w = n.closeW
		n.closeW = nil
	}
	n.mu.Unlock()
	if w != nil {
		w.Wake()
	}
}

// jitter returns the node's next retry-jitter draw in [0,1): a hash of
// the configured seed, the bound address and the draw's number, so every
// node retries on its own reproducible schedule without holding a
// generator. It is drawn only in a backoff after a transient failure
// under a policy that sets Jitter, which no deployment here does.
func (n *Node) jitter() float64 {
	h := sim.SubSeed(n.cfg.Seed, sim.StringLabel("retry-jitter"),
		sim.StringLabel(string(n.addr)), n.jitterDraws.Add(1))
	return float64(h>>10) / (1 << 53) // SubSeed is 63 bits wide
}

// retryCall performs one control-plane request under the node's retry
// policy. Only transport-level failures are retried.
func (n *Node) retryCall(to transport.Addr, req *transport.Message) (*transport.Message, error) {
	var resp *transport.Message
	err := n.retry.Do(n.ctx, n.sched, n.jitter, func() error {
		r, err := n.tr.Call(to, req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}

// follow makes sur the surrogate this node is a plain member of, and
// publishes the node's capability information to a new one (end-host
// duty 3; best effort — it is republished on every change of surrogate).
// A demoted surrogate drops the close set it built: the set is the lease
// holder's to serve.
func (n *Node) follow(sur transport.Addr) {
	n.mu.Lock()
	changed := n.surrogate != sur
	n.surrogate, n.isSurro, n.closeSet = sur, false, nil
	n.mu.Unlock()
	if changed {
		req := transport.AcquireMessage()
		req.Type, req.From, req.Nodal = transport.MsgPublishNodalInfo, n.addr, n.cfg.Nodal
		resp, _ := n.retryCall(sur, req) // nil on failure
		transport.ReleaseMessage(req)
		transport.ReleaseMessage(resp)
	}
}

// claimLease sends the one lease message — registration is the first
// heartbeat, renewal every later one — and applies the bootstrap's
// compare-and-swap verdict: granted (or renewed, or re-acquired after a
// bootstrap restart) unless a live rival holds the lease, whom the node
// then follows as a plain member. An error leaves its role untouched.
func (n *Node) claimLease() (held bool, err error) {
	n.mu.Lock()
	key := n.clusterKey
	n.mu.Unlock()
	req := transport.AcquireMessage()
	req.Type, req.From = transport.MsgSurrogateHeartbeat, n.addr
	req.ClusterKey, req.SurrogateAddr = key, n.addr
	resp, err := n.retryCall(n.cfg.Bootstrap, req)
	transport.ReleaseMessage(req)
	if err != nil {
		return false, fmt.Errorf("core: claim surrogate lease: %w", err)
	}
	holder, ttl := resp.SurrogateAddr, resp.LeaseTTL
	transport.ReleaseMessage(resp)
	if holder != "" && holder != n.addr {
		n.follow(holder)
		return false, nil
	}
	n.mu.Lock()
	n.surrogate, n.isSurro, n.leaseTTL = n.addr, true, ttl
	n.mu.Unlock()
	return true, nil
}

// armRenew schedules the next lease heartbeat a third of a lease away,
// unless one is pending, leases are disabled or the node closed. Instead
// of a goroutine blocked on a ticker, each tick is a scheduler task that
// re-arms itself — the shape that runs identically on the virtual clock
// and the wall adapter.
func (n *Node) armRenew() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.renewTimer == nil && n.leaseTTL > 0 && !n.closed {
		n.renewTimer = n.sched.AfterFunc(max(n.leaseTTL/3, 5*time.Millisecond), n.renewTick)
	}
}

// renewTick is one heartbeat: claim the lease again and re-arm while it
// is held. A failed claim is a bootstrap outage: keep serving and retry
// next tick — the heartbeat re-acquires the lease once the bootstrap
// heals. The chain ends once a rival holds the lease.
func (n *Node) renewTick() {
	n.mu.Lock()
	n.renewTimer = nil // fired
	n.mu.Unlock()
	if !n.bgStart() {
		return
	}
	defer n.bgDone()
	if n.ctx.Err() != nil || !n.IsSurrogate() {
		return
	}
	if held, err := n.claimLease(); held || err != nil {
		n.armRenew()
	}
}

// reelect asks the bootstrap who serves this node's cluster and takes up
// the matching role — the join, and every re-join after the surrogate
// stopped answering. It follows a live incumbent and publishes nodal info
// to it (end-host duty 3); a lease holder that does not answer is still
// followed, never displaced, until its lease runs out. It volunteers
// (duty 2) when the cluster is vacant or the lease names this very
// address — a surrogate restarted in place — then renews the lease and
// builds its close set (a failed build leaves it empty: degraded but
// serving). It returns the surrogate the node now follows.
func (n *Node) reelect() (transport.Addr, error) {
	req := transport.AcquireMessage()
	req.Type, req.From, req.IP = transport.MsgJoin, n.addr, n.cfg.IP
	resp, err := n.retryCall(n.cfg.Bootstrap, req)
	transport.ReleaseMessage(req)
	if err != nil {
		return "", fmt.Errorf("core: join: %w", err)
	}
	sur := resp.SurrogateAddr
	n.mu.Lock()
	n.asn, n.clusterKey = asgraph.ASN(resp.ASN), resp.ClusterKey
	n.mu.Unlock()
	transport.ReleaseMessage(resp)
	if sur != "" && sur != n.addr {
		n.follow(sur)
		return sur, nil
	}
	held, err := n.claimLease()
	if err != nil {
		return "", err
	}
	if held {
		n.armRenew()
		_ = n.RefreshCloseSet()
	}
	return n.Surrogate(), nil
}

// asyncReelect triggers reelect in the background, at most one at a time.
// Message handlers use it so a degraded reply is never delayed by a
// re-election round.
func (n *Node) asyncReelect() {
	n.mu.Lock()
	if n.rejoining || n.closed {
		n.mu.Unlock()
		return
	}
	n.rejoining = true
	n.bg++
	n.mu.Unlock()
	n.sched.Go(func() {
		defer n.bgDone()
		_, _ = n.reelect()
		n.mu.Lock()
		n.rejoining = false
		n.mu.Unlock()
	})
}

// maxProbeBatch bounds the far legs one MsgProbeBatch may ask a node to
// ping. Each leg becomes a concurrent ping task, so without a bound a
// single frame could turn a relay into a ping amplifier. ProbePaths
// sends one leg per distinct callee this caller reaches through the
// relay — one per live session: every one of call_sim's batches carries
// one leg, live_tcp's four — so 64 is far above honest traffic.
const maxProbeBatch = 64

// handleGetCloseSet answers Fig. 10's step 2 in the two forms
// MsgGetCloseSet documents. A member forwards an unkeyed request once,
// keyed, to the surrogate it follows; if that fails it answers an empty
// Degraded set, so the call proceeds direct, and re-elects in the
// background. A keyed request for a lease this node does not hold (a
// demoted surrogate's, say) is refused with a handler error, which no
// retry repeats, so the asker re-elects instead.
func (n *Node) handleGetCloseSet(req *transport.Message) (*transport.Message, error) {
	n.mu.Lock()
	isSurro, key, sur, set := n.isSurro, n.clusterKey, n.surrogate, n.closeSet
	n.mu.Unlock()
	switch {
	case req.ClusterKey != "":
		if !isSurro || key != req.ClusterKey {
			return nil, fmt.Errorf("core: %s does not hold the lease of cluster %s", n.addr, req.ClusterKey)
		}
	case !isSurro:
		fwd := transport.AcquireMessage()
		fwd.Type, fwd.From, fwd.ClusterKey = transport.MsgGetCloseSet, n.addr, key
		resp, err := n.tr.Call(sur, fwd)
		transport.ReleaseMessage(fwd)
		if err != nil {
			n.asyncReelect()
			return closeSetReply(nil, true), nil
		}
		set = resp.CloseSet
		transport.ReleaseMessage(resp) // drops the reference, not the set
	}
	return closeSetReply(set, false), nil
}

// closeSetReply is a MsgGetCloseSetReply from the envelope pool; the
// node that asked releases it.
func closeSetReply(set []transport.CloseEntry, degraded bool) *transport.Message {
	resp := transport.AcquireMessage()
	resp.Type, resp.CloseSet, resp.Degraded = transport.MsgGetCloseSetReply, set, degraded
	return resp
}

func (n *Node) handle(from transport.Addr, req *transport.Message) (*transport.Message, error) {
	switch req.Type {
	case transport.MsgPing:
		// A ping that names a relay flow is the in-call keepalive: it
		// also asserts this node still holds the flow.
		if req.FlowID != 0 {
			if _, ok := n.touchFlow(req.FlowID); !ok {
				return nil, fmt.Errorf("core: ping for unknown relay flow %d", req.FlowID)
			}
		}
		// The hot-path acks (pong, voice) come from the envelope pool;
		// the caller-side helpers (ping, Keepalive, SendVoice) release
		// them.
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgPong
		resp.SentAt = req.SentAt
		return resp, nil

	case transport.MsgGetCloseSet:
		return n.handleGetCloseSet(req)

	case transport.MsgPublishNodalInfo:
		// Acknowledged, not stored: the actor election seats whoever wins
		// the lease, so nothing reads nodal info yet (DESIGN.md §8). The
		// ack is pooled; follow releases it.
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgPublishNodalInfoReply
		return resp, nil

	case transport.MsgProbeBatch:
		// Relay role, batched: measure our leg to every probe destination
		// in one round trip. Legs run concurrently, so the caller recovers
		// its own leg as elapsed - max(leg RTTs); an empty destination
		// means "the path ends here" and costs nothing. An unreachable
		// destination answers -1 rather than failing the whole batch, so
		// each path degrades individually (DESIGN.md §15). The batch
		// size comes straight off the wire, so it is bounded before any
		// ping task exists.
		if len(req.ProbeDsts) > maxProbeBatch {
			return nil, fmt.Errorf("core: probe batch of %d destinations exceeds the limit of %d", len(req.ProbeDsts), maxProbeBatch)
		}
		rtts := make([]time.Duration, len(req.ProbeDsts)) // the reply keeps it
		n.pingLegs(req.ProbeDsts, rtts)
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgProbeBatchReply
		resp.ProbeRTTs = rtts
		return resp, nil

	case transport.MsgMediaSetup:
		return n.handleMediaSetup(from, req)

	case transport.MsgRelayOpen:
		return n.handleRelayOpen(from, req)

	case transport.MsgVoice:
		if req.FlowID != 0 {
			dst, ok := n.touchFlow(req.FlowID)
			if ok && dst != n.addr {
				// Relay role: forward and propagate the ack. From stays the
				// original caller so the callee's per-peer accounting
				// attributes bytes to the speaker, not the relay; Via marks
				// this node as the hop's wire sender so the transport
				// charges relay->callee latency (and routes the hop from
				// the relay's shard under the sharded runner).
				fwd := *req
				fwd.FlowID = 0 // terminal hop
				fwd.Via = n.addr
				return n.tr.Call(dst, &fwd)
			}
			if !ok {
				return nil, fmt.Errorf("core: unknown relay flow %d", req.FlowID)
			}
		}
		// Callee role: accept the batch, accounting per sender (the
		// terminal hop always carries FlowID 0, so concurrent callers
		// would merge under a flow-keyed counter).
		n.mu.Lock()
		if n.received == nil {
			n.received = make(map[transport.Addr]int)
		}
		n.received[from] += len(req.Frames)
		n.mu.Unlock()
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgVoiceAck
		resp.Seq = req.Seq
		return resp, nil

	default:
		return nil, fmt.Errorf("core: node cannot handle message type %d", req.Type)
	}
}
