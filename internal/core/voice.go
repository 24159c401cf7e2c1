package core

import (
	"fmt"
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
	open, err := n.retryCall(relay, &transport.Message{
		Type: transport.MsgRelayOpen, From: n.addr, Dst: callee, FlowID: f.id,
	})
	if err != nil {
		return 0, fmt.Errorf("core: relay open: %w", err)
	}
	n.mu.Lock()
	if n.outFlows == nil {
		n.outFlows = make(map[flowKey]outFlow)
	}
	n.outFlows[key] = outFlow{id: open.FlowID}
	n.mu.Unlock()
	return open.FlowID, nil
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
// the unique far legs to measure through it, and which result slots
// each leg feeds.
type probeGroup struct {
	target transport.Addr   // where the MsgProbeBatch travels
	dsts   []transport.Addr // unique far legs ("" = the target itself)
	slots  [][]int          // slots[j] = result indices fed by dsts[j]
}

// ProbePaths implements session.BatchDriver: the tick's paths are
// grouped per wire destination — the relay, or the callee itself on
// direct paths — and each group travels as one MsgProbeBatch round
// trip instead of one call per path. The receiver measures its far
// legs concurrently and replies with per-leg RTTs; since the legs
// overlap in time, this node's own leg is elapsed - max(leg RTTs), and
// each path's total is own leg + its far leg (DESIGN.md §15). Groups
// are built in first-seen order, so the wire schedule is deterministic.
func (n *Node) ProbePaths(reqs []session.PathRequest) []session.PathResult {
	out := make([]session.PathResult, len(reqs))
	var groups []probeGroup
	gidx := make(map[transport.Addr]int, len(reqs))
	for i, r := range reqs {
		target, dst := r.Relay, r.Callee
		if target == "" {
			target, dst = r.Callee, ""
		}
		gi, ok := gidx[target]
		if !ok {
			gi = len(groups)
			gidx[target] = gi
			groups = append(groups, probeGroup{target: target})
		}
		g := &groups[gi]
		di := -1
		for j, d := range g.dsts {
			if d == dst {
				di = j
				break
			}
		}
		if di < 0 {
			di = len(g.dsts)
			g.dsts = append(g.dsts, dst)
			g.slots = append(g.slots, nil)
		}
		g.slots[di] = append(g.slots[di], i)
	}
	switch len(groups) {
	case 0:
	case 1:
		n.runProbeGroup(&groups[0], out)
	default:
		fns := make([]func(), len(groups))
		for i := range groups {
			g := &groups[i]
			fns[i] = func() { n.runProbeGroup(g, out) }
		}
		n.sched.Join(0, fns...)
	}
	return out
}

// runProbeGroup sends one MsgProbeBatch and fans its reply out into the
// result slots the group's paths own.
func (n *Node) runProbeGroup(g *probeGroup, out []session.PathResult) {
	fail := func(err error) {
		for _, idxs := range g.slots {
			for _, i := range idxs {
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
	for j, idxs := range g.slots {
		leg := resp.ProbeRTTs[j]
		if leg < 0 {
			for _, i := range idxs {
				out[i].Err = fmt.Errorf("core: probe batch via %s: %w: %s", g.target, transport.ErrUnreachable, g.dsts[j])
			}
			continue
		}
		for _, i := range idxs {
			out[i].RTT = own + leg
		}
	}
	transport.ReleaseMessage(resp)
}

// Keepalive checks that target (the active relay, or the callee on a
// direct path) is alive and, when flowID is nonzero, still holds the
// relay flow: one ping that names the flow. Implements session.Driver.
func (n *Node) Keepalive(target transport.Addr, flowID uint64) error {
	req := transport.AcquireMessage()
	req.Type = transport.MsgPing
	req.From = n.addr
	req.FlowID = flowID
	resp, err := n.tr.Call(target, req)
	transport.ReleaseMessage(req)
	if err != nil {
		return err
	}
	if resp.Type != transport.MsgPong {
		return fmt.Errorf("core: unexpected keepalive reply type %d", resp.Type)
	}
	transport.ReleaseMessage(resp)
	return nil
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
