package core

import (
	"fmt"
	"slices"
	"time"

	"asap/internal/session"
	"asap/internal/transport"
)

// Voice role: the in-call data path — relay flow management, voice frame
// forwarding, path probing and keepalives. ProbePath and Keepalive
// implement session.Driver for the live session monitor.

// EnsureFlow opens a forwarding flow on relay toward callee, reusing a
// previously opened one. Voice sends and session keepalives share the
// returned flow ID for the life of the call. After a DropFlow the open
// names the dropped flow, so the relay releases it and opens a fresh one.
func (n *Node) EnsureFlow(relay, callee transport.Addr) (uint64, error) {
	key := flowKey{relay: relay, callee: callee}
	n.mu.Lock()
	f, ok := n.outFlows[key]
	n.mu.Unlock()
	if ok && !f.dropped {
		return f.id, nil
	}
	req := transport.AcquireMessage()
	req.Type, req.From, req.Dst, req.FlowID = transport.MsgRelayOpen, n.addr, callee, f.id
	open, err := n.retryCall(relay, req)
	transport.ReleaseMessage(req)
	if err != nil {
		return 0, fmt.Errorf("core: relay open: %w", err)
	}
	id := open.FlowID
	transport.ReleaseMessage(open)
	n.mu.Lock()
	if n.outFlows == nil {
		n.outFlows = make(map[flowKey]outFlow)
	}
	n.outFlows[key] = outFlow{id: id}
	n.mu.Unlock()
	return id, nil
}

// DropFlow gives up the cached flow on relay toward callee (after a
// failover the dead relay's flow must not be reused).
func (n *Node) DropFlow(relay, callee transport.Addr) {
	key := flowKey{relay: relay, callee: callee}
	n.mu.Lock()
	if f, ok := n.outFlows[key]; ok {
		f.dropped = true
		n.outFlows[key] = f
	}
	n.mu.Unlock()
}

// SendVoice sends a voice frame batch to the callee, through the relay
// when choice selected one. It returns the payload bytes delivered.
func (n *Node) SendVoice(choice *RelayChoice, callee transport.Addr, frames []byte, seq uint32) error {
	msg := transport.AcquireMessage()
	msg.Type = transport.MsgVoice
	msg.From = n.addr
	msg.Dst = callee
	msg.Seq = seq
	msg.Frames = frames
	to := callee
	if choice.Relay != "" {
		id, err := n.EnsureFlow(choice.Relay, callee)
		if err != nil {
			transport.ReleaseMessage(msg)
			return err
		}
		msg.FlowID = id
		to = choice.Relay
	}
	resp, err := n.tr.Call(to, msg)
	transport.ReleaseMessage(msg)
	if err != nil {
		return fmt.Errorf("core: voice send: %w", err)
	}
	if resp.Type != transport.MsgVoiceAck {
		return fmt.Errorf("core: unexpected voice reply type %d", resp.Type)
	}
	transport.ReleaseMessage(resp)
	return nil
}

// ProbePath measures the full voice-path round trip through relay to
// callee (relay == "" probes the direct path), implementing
// session.Driver: it is ProbePaths of one request. A probe measures
// delay only and reports loss 0; listener-side loss reaches the session
// monitor through MediaCall.MediaSource.
func (n *Node) ProbePath(relay, callee transport.Addr) (time.Duration, float64, error) {
	r := n.ProbePaths([]session.PathRequest{{Relay: relay, Callee: callee}})[0]
	return r.RTT, r.Loss, r.Err
}

// probeGroup is one wire destination's share of a batched probe tick:
// the unique far legs to measure through it.
type probeGroup struct {
	target transport.Addr   // where the MsgProbeBatch travels
	dsts   []transport.Addr // unique far legs ("" = the target itself)
}

// probeRoute splits a path request into its wire destination and far
// leg: a relayed path travels to the relay and measures the callee; a
// direct path travels to the callee and measures nothing beyond it.
func probeRoute(r session.PathRequest) (target, dst transport.Addr) {
	if r.Relay == "" {
		return r.Callee, ""
	}
	return r.Relay, r.Callee
}

// ProbePaths implements session.BatchDriver: the tick's paths are
// grouped per wire destination — the relay, or the callee itself on
// direct paths — and each group travels as one MsgProbeBatch round
// trip instead of one call per path. The receiver measures its far
// legs concurrently and replies with per-leg RTTs; since the legs
// overlap in time, this node's own leg is elapsed - max(leg RTTs), and
// each path's total is own leg + its far leg (DESIGN.md §15). Groups
// and each group's legs are in first-seen order, so the wire schedule
// is deterministic. A tick names a handful of destinations, so groups
// and legs are found by scanning flat slices, and every group's legs
// are a window of one shared slice. Both live on a fan-out scratch, so
// a warm tick allocates only the results it returns.
func (n *Node) ProbePaths(reqs []session.PathRequest) []session.PathResult {
	out := make([]session.PathResult, len(reqs))
	f := n.takeFan()
	defer n.putFan(f)
	groups := f.groups[:0]
	for _, r := range reqs {
		target, _ := probeRoute(r)
		if !slices.ContainsFunc(groups, func(g probeGroup) bool { return g.target == target }) {
			groups = append(groups, probeGroup{target: target})
		}
	}
	dsts := f.dsts[:0]
	for gi := range groups {
		g := &groups[gi]
		lo := len(dsts)
		for _, r := range reqs {
			if target, dst := probeRoute(r); target == g.target && !slices.Contains(dsts[lo:], dst) {
				dsts = append(dsts, dst)
			}
		}
		g.dsts = dsts[lo:len(dsts):len(dsts)]
	}
	f.groups, f.dsts = groups, dsts
	switch len(groups) {
	case 0:
	case 1:
		n.runProbeGroup(&groups[0], reqs, out)
	default:
		f.reqs, f.out = reqs, out
		n.sched.Join(0, f.tasks(len(groups))...)
	}
	return out
}

// fan is the working set of one concurrent fan-out on a node, and the
// tasks that run it: a probe tick's groups and their legs (ProbePaths),
// or the far legs a MsgProbeBatch asks for. A task is bound to its fan
// and slot once, when the fan first grows that far. The node keeps one
// fan between fan-outs; one that overlaps another (two sessions' ticks,
// or a tick and a batch it answers) makes its own.
type fan struct {
	n     *Node
	bound []func() // bound[k] runs item(k)
	dsts  []transport.Addr

	// ProbePaths: the tick and its groups, whose legs are windows of
	// dsts.
	reqs   []session.PathRequest
	out    []session.PathResult
	groups []probeGroup

	// MsgProbeBatch: dsts are the legs to ping, slot[k] is where leg k's
	// RTT goes in rtts, the reply's.
	slot []int
	rtts []time.Duration
}

// takeFan returns the node's idle fan, or a new one.
func (n *Node) takeFan() *fan {
	n.mu.Lock()
	f := n.fan
	n.fan = nil
	n.mu.Unlock()
	if f == nil {
		f = &fan{n: n}
	}
	return f
}

// putFan clears what f references and keeps it as the node's idle fan.
func (n *Node) putFan(f *fan) {
	clear(f.groups)
	clear(f.dsts)
	f.reqs, f.out, f.rtts = nil, nil, nil
	n.mu.Lock()
	n.fan = f
	n.mu.Unlock()
}

// tasks returns the tasks that run items 0..k-1 of the fan-out.
func (f *fan) tasks(k int) []func() {
	for i := len(f.bound); i < k; i++ {
		f.bound = append(f.bound, func() { f.item(i) })
	}
	return f.bound[:k]
}

// item runs item k of the fan-out in progress: for a MsgProbeBatch
// (rtts set), leg k's round trip; for a ProbePaths tick, group k's.
func (f *fan) item(k int) {
	if f.rtts == nil {
		f.n.runProbeGroup(&f.groups[k], f.reqs, f.out)
		return
	}
	f.rtts[f.slot[k]] = f.n.legRTT(f.dsts[k])
}

// pingLegs answers a MsgProbeBatch's legs: rtts[i] is the round trip to
// dsts[i], -1 when it does not answer, and nothing is sent for an empty
// destination. The legs are pinged concurrently; a batch with one far
// leg (each of call_sim's) pings it inline, more fan out from the
// node's scratch.
func (n *Node) pingLegs(dsts []transport.Addr, rtts []time.Duration) {
	legs, last := 0, 0
	for i, dst := range dsts {
		if dst != "" {
			legs, last = legs+1, i
		}
	}
	switch legs {
	case 0:
	case 1:
		rtts[last] = n.legRTT(dsts[last])
	default:
		f := n.takeFan()
		f.dsts, f.slot, f.rtts = f.dsts[:0], f.slot[:0], rtts
		for i, dst := range dsts {
			if dst != "" {
				f.dsts, f.slot = append(f.dsts, dst), append(f.slot, i)
			}
		}
		n.sched.Join(0, f.tasks(legs)...)
		n.putFan(f)
	}
}

// legRTT pings one far leg of a probe batch: its round trip, or -1.
func (n *Node) legRTT(dst transport.Addr) time.Duration {
	rtt, err := n.Ping(dst)
	if err != nil {
		return -1
	}
	return rtt
}

// runProbeGroup sends g's MsgProbeBatch and fans its reply out into the
// result slots of the requests g carries.
func (n *Node) runProbeGroup(g *probeGroup, reqs []session.PathRequest, out []session.PathResult) {
	fail := func(err error) {
		for i, r := range reqs {
			if target, _ := probeRoute(r); target == g.target {
				out[i].Err = err
			}
		}
	}
	start := n.sched.Now()
	req := transport.AcquireMessage()
	req.Type = transport.MsgProbeBatch
	req.From = n.addr
	req.ProbeDsts = g.dsts
	resp, err := n.tr.Call(g.target, req)
	transport.ReleaseMessage(req)
	elapsed := n.sched.Now() - start
	if err != nil {
		fail(err)
		return
	}
	if resp.Type != transport.MsgProbeBatchReply || len(resp.ProbeRTTs) != len(g.dsts) {
		fail(fmt.Errorf("core: bad probe batch reply from %s", g.target))
		transport.ReleaseMessage(resp)
		return
	}
	var maxLeg time.Duration
	for _, leg := range resp.ProbeRTTs {
		if leg > maxLeg {
			maxLeg = leg
		}
	}
	own := elapsed - maxLeg
	if own < 0 {
		own = 0
	}
	for i, r := range reqs {
		target, dst := probeRoute(r)
		if target != g.target {
			continue
		}
		if leg := resp.ProbeRTTs[slices.Index(g.dsts, dst)]; leg >= 0 {
			out[i].RTT = own + leg
		} else {
			out[i].Err = fmt.Errorf("core: probe batch via %s: %w: %s", g.target, transport.ErrUnreachable, dst)
		}
	}
	transport.ReleaseMessage(resp)
}

// Keepalive checks that target (the active relay, or the callee on a
// direct path) is alive and, when flowID is nonzero, still holds the
// relay flow: one ping that names the flow. Implements session.Driver.
func (n *Node) Keepalive(target transport.Addr, flowID uint64) error {
	_, err := n.ping(target, flowID)
	return err
}

// ReceivedBytes reports how many voice payload bytes this node has
// accepted as the callee, across all senders.
func (n *Node) ReceivedBytes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, v := range n.received {
		total += v
	}
	return total
}

// ReceivedBytesFrom reports how many voice payload bytes this node has
// accepted from one sending peer.
func (n *Node) ReceivedBytesFrom(peer transport.Addr) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.received[peer]
}
