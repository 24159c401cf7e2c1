package core

import (
	"fmt"
	"sort"
	"time"

	"asap/internal/overlay"
	"asap/internal/session"
	"asap/internal/transport"
)

// Call-setup role: the live, message-passing select-close-relay of
// Section 6.2 — measure the direct path, exchange close sets with the
// callee, and rank one-hop relay candidates.

// RelayCandidate is one usable relay from a call setup, with its
// estimated voice-path RTT. The session monitor probes the top few as
// backup paths during the call, so it is the monitor's own path type.
type RelayCandidate = session.Candidate

// RelayChoice is the outcome of a live call setup.
type RelayChoice struct {
	// Relay is the chosen relay surrogate address; empty means direct.
	Relay transport.Addr
	// EstRTT is the estimated voice-path RTT.
	EstRTT time.Duration
	// Direct is the measured direct RTT.
	Direct time.Duration
	// Candidates is the number of one-hop candidates considered.
	Candidates int
	// Ranked is every considered candidate ordered by estimated RTT
	// (Ranked[0] is the chosen relay when one was selected). The live
	// session layer draws its backup paths from this list.
	Ranked []RelayCandidate
	// Degraded marks a direct fallback forced by a control-plane failure
	// (close set or callee surrogate unreachable) rather than chosen on
	// merit. The session monitor's reselect hook upgrades the path once
	// the control plane heals.
	Degraded bool
}

// SetupCall performs the Fig. 10 one-hop selection against a live callee:
// measure direct, fetch the callee's close set (2 messages), intersect
// with ours, and pick the lowest-estimate relay under latT. Control-plane
// failures degrade to a direct call (Degraded set) instead of erroring;
// only an unreachable callee fails the setup.
func (n *Node) SetupCall(callee transport.Addr) (*RelayChoice, error) {
	var direct time.Duration
	err := n.retry.Do(n.ctx, n.sched, n.jitter, func() error {
		d, err := n.Ping(callee)
		if err != nil {
			return err
		}
		direct = d
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: callee unreachable: %w", err)
	}
	choice := &RelayChoice{Relay: "", EstRTT: direct, Direct: direct}
	if direct < n.cfg.Params.LatT {
		return choice, nil
	}
	mine, err := n.CloseSet()
	if err != nil {
		// Our control plane is down: place the call direct now; the
		// session monitor upgrades it once a relay is findable again.
		choice.Degraded = true
		return choice, nil
	}
	resp, err := n.retryCall(callee, &transport.Message{
		Type: transport.MsgCallSetup, From: n.addr,
	})
	if err != nil {
		// The callee answers pings but not setup (flaky path): degrade.
		choice.Degraded = true
		return choice, nil
	}
	if resp.Degraded {
		// The callee could not reach its surrogate and answered with an
		// empty set.
		choice.Degraded = true
	}
	theirs := make(map[string]transport.CloseEntry, len(resp.CloseSet))
	for _, e := range resp.CloseSet {
		theirs[e.ClusterKey] = e
	}
	for _, e := range mine {
		o, ok := theirs[e.ClusterKey]
		if !ok {
			continue
		}
		est := e.RTT + o.RTT + overlay.RelayRTT
		if est >= n.cfg.Params.LatT && est >= choice.EstRTT {
			continue
		}
		choice.Candidates++
		choice.Ranked = append(choice.Ranked, RelayCandidate{
			Relay: e.SurrogateAddr, Est: est,
		})
		if est < choice.EstRTT {
			choice.EstRTT = est
			choice.Relay = e.SurrogateAddr
		}
	}
	sort.Slice(choice.Ranked, func(i, j int) bool {
		return choice.Ranked[i].Est < choice.Ranked[j].Est
	})
	if choice.Relay != "" {
		choice.Degraded = false
	}
	return choice, nil
}
