package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"asap/internal/transport"
)

// Surrogate role: close-cluster-set construction and serving. A surrogate
// measures the surrogates of nearby clusters (construct-close-cluster-set,
// Fig. 9, by live pinging) and answers members' close-set fetches; members
// fall back to re-election when their surrogate stops answering.

// Ping measures the RTT to another node over the transport. Timestamps
// come from the node's scheduler, so the measurement is virtual-time
// exact in simulation.
//
//lint:errclass transport.Call errors pass through unwrapped (IsTransient sees them); the only local error is a fresh fmt.Errorf for a mis-typed reply, terminal by construction
func (n *Node) Ping(to transport.Addr) (time.Duration, error) {
	start := n.sched.Now()
	req := transport.AcquireMessage()
	req.Type = transport.MsgPing
	req.From = n.addr
	req.SentAt = start
	resp, err := n.tr.Call(to, req)
	transport.ReleaseMessage(req)
	if err != nil {
		return 0, err
	}
	if got := resp.Type; got != transport.MsgPong {
		transport.ReleaseMessage(resp)
		return 0, fmt.Errorf("core: unexpected ping reply type %v", got)
	}
	transport.ReleaseMessage(resp)
	return n.sched.Now() - start, nil
}

// pingWithTimeout bounds a close-set probe ping so one stalled surrogate
// cannot stall the whole rebuild. The ping runs as its own scheduler
// task; the caller waits for first-of(result, deadline) on a Waiter —
// under the virtual clock the winner is decided by event order, not by a
// racing wall timer.
func (n *Node) pingWithTimeout(to transport.Addr) (time.Duration, error) {
	var (
		mu  sync.Mutex
		rtt time.Duration
		err error
	)
	w := n.sched.NewWaiter()
	n.sched.Go(func() {
		r, e := n.Ping(to)
		mu.Lock()
		rtt, err = r, e
		mu.Unlock()
		w.Wake()
	})
	// A surrogate slower than twice LatT is no close-set candidate anyway.
	if !w.Wait(2 * n.cfg.Params.LatT) {
		// The stalled ping task is abandoned; it resolves into a dead
		// Waiter whenever the transport finally answers.
		return 0, fmt.Errorf("core: ping %s: %w", to, context.DeadlineExceeded)
	}
	mu.Lock()
	defer mu.Unlock()
	return rtt, err
}

// closeSetPingWorkers bounds the close-set probe worker pool.
const closeSetPingWorkers = 8

// RefreshCloseSet rebuilds the close cluster set by asking the bootstrap
// for surrogates within K valley-free AS hops and pinging each
// (construct-close-cluster-set with the latency threshold; loss
// thresholding needs multi-packet trains and is left to the algorithmic
// layer). Pings run through a bounded worker pool with a per-ping
// timeout, so one slow surrogate delays — not serializes — the rebuild.
func (n *Node) RefreshCloseSet() error {
	n.mu.Lock()
	asn := n.asn
	key := n.clusterKey
	n.mu.Unlock()
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
			rtt, err := n.pingWithTimeout(cands[i].SurrogateAddr)
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
