package core

import (
	"fmt"
	"slices"
	"time"

	"asap/internal/transport"
)

// Surrogate role: close-cluster-set construction and serving. A surrogate
// measures the surrogates of nearby clusters (construct-close-cluster-set,
// Fig. 9, by live pinging) and answers members' close-set fetches; members
// fall back to re-election when their surrogate stops answering.

// ping is the one MsgPing/MsgPong exchange: it measures the round trip
// on the node's scheduler (virtual-time exact in simulation), Keepalive
// names a relay flow in it (flowID nonzero), and the close-set build
// bounds it by a budget (nonzero: the transport gives up at send +
// budget with an error wrapping context.DeadlineExceeded).
//
//lint:errclass transport.Call errors pass through unwrapped (IsTransient sees them); the only local error is a fresh fmt.Errorf for a mis-typed reply, terminal by construction
func (n *Node) ping(to transport.Addr, flowID uint64, budget time.Duration) (time.Duration, error) {
	start := n.sched.Now()
	req := transport.AcquireMessage()
	req.Type = transport.MsgPing
	req.From = n.addr
	req.FlowID = flowID
	req.SentAt = start
	req.Timeout = budget
	resp, err := n.tr.Call(to, req)
	transport.ReleaseMessage(req)
	if err != nil {
		return 0, err
	}
	got := resp.Type
	transport.ReleaseMessage(resp)
	if got != transport.MsgPong {
		return 0, fmt.Errorf("core: unexpected ping reply type %v", got)
	}
	return n.sched.Now() - start, nil
}

// closeSetPingWorkers bounds the close-set probe worker pool on the wall
// scheduler. sim.Clock's Join ignores the limit: its tasks hold one
// virtual CPU in turn, so each probe is its own task there.
const closeSetPingWorkers = 8

// RefreshCloseSet rebuilds the close cluster set by asking the bootstrap
// for surrogates within K valley-free AS hops and pinging each
// (construct-close-cluster-set with the latency threshold; loss
// thresholding needs multi-packet trains and is left to the algorithmic
// layer). Pings run concurrently, at most closeSetPingWorkers at once on
// the wall scheduler (the virtual clock ignores Join's limit), each
// carrying a budget of twice LatT — a surrogate slower than that is no
// close-set candidate anyway — so one slow surrogate delays, not
// serializes, the rebuild, and a ping past its budget leaves nothing
// running.
// Only the lease holder builds one: a plain member's close set is its
// surrogate's, which CloseSet fetches, so on a member it returns nil
// without sending anything.
func (n *Node) RefreshCloseSet() error {
	n.mu.Lock()
	asn, key, isSurro := n.asn, n.clusterKey, n.isSurro
	n.mu.Unlock()
	if !isSurro {
		return nil
	}
	resp, err := n.retryCall(n.cfg.Bootstrap, &transport.Message{
		Type: transport.MsgGetSurrogates, From: n.addr,
		ASNs: []uint32{uint32(asn)},
	})
	if err != nil {
		return fmt.Errorf("core: get surrogates: %w", err)
	}
	var cands []transport.CloseEntry
	for _, e := range resp.CloseSet {
		if e.ClusterKey != key {
			cands = append(cands, e)
		}
	}
	// Each probe writes its entry's RTT, -1 when not close; the close ones
	// keep the bootstrap's key order.
	probes := make([]func(), len(cands))
	for i := range cands {
		probes[i] = func() {
			rtt, err := n.ping(cands[i].SurrogateAddr, 0, 2*n.cfg.Params.LatT)
			if err != nil || rtt >= n.cfg.Params.LatT {
				rtt = -1
			}
			cands[i].RTT = rtt
		}
	}
	n.sched.Join(closeSetPingWorkers, probes...)
	set := slices.DeleteFunc(cands, func(e transport.CloseEntry) bool { return e.RTT < 0 })
	n.mu.Lock()
	n.closeSet = set
	n.mu.Unlock()
	return nil
}

// CloseSet returns the node's current close cluster set, fetching it from
// the cluster surrogate when the node is a plain member. An unresponsive
// surrogate triggers one re-election round before giving up. The slice is
// the one the surrogate holds: callers must not modify it.
func (n *Node) CloseSet() ([]transport.CloseEntry, error) {
	for try := 0; ; try++ {
		n.mu.Lock()
		isSurro, sur, key, cached := n.isSurro, n.surrogate, n.clusterKey, n.closeSet
		n.mu.Unlock()
		if isSurro {
			return cached, nil
		}
		resp, err := n.retryCall(sur, &transport.Message{
			Type: transport.MsgGetCloseSet, From: n.addr, ClusterKey: key,
		})
		if err == nil {
			return resp.CloseSet, nil
		}
		// Surrogate gone after retries, or no longer the lease holder:
		// re-elect once and ask the replacement — unless the bootstrap
		// still leases the unresponsive incumbent, in which case there is
		// nothing new to ask.
		if try == 0 {
			if next, rerr := n.reelect(); rerr == nil && next != sur {
				continue
			}
		}
		return nil, fmt.Errorf("core: fetch close set: %w", err)
	}
}
