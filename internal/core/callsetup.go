package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
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
	// Candidates is the number of one-hop candidates admitted, len(Ranked).
	Candidates int
	// Ranked is every admitted candidate ordered by estimated RTT, then
	// cluster key (Ranked[0] is the chosen relay when one was selected).
	// The live session layer draws its backup paths from this list.
	Ranked []RelayCandidate
	// Degraded marks a direct fallback forced by a control-plane failure
	// (close set or callee surrogate unreachable) rather than chosen on
	// merit. The session monitor's reselect hook upgrades the path once
	// the control plane heals.
	Degraded bool
}

// SetupCall performs the Fig. 10 one-hop selection against a live callee:
// measure direct, fetch the callee's close set (2 messages), intersect
// with ours, admit every relay under max(latT, direct) and pick the
// lowest-estimate one. Control-plane failures degrade to a direct call
// (Degraded set) instead of erroring; only an unreachable callee fails.
func (n *Node) SetupCall(callee transport.Addr) (*RelayChoice, error) {
	var direct time.Duration
	err := n.retry.Do(n.ctx, n.sched, n.jitter, func() error {
		d, err := n.ping(callee, 0, 0)
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
	req := transport.AcquireMessage()
	req.Type, req.From = transport.MsgGetCloseSet, n.addr
	resp, err := n.retryCall(callee, req)
	transport.ReleaseMessage(req)
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
	choice.Ranked = rankedRelays(sortedByKey(mine), sortedByKey(resp.CloseSet), max(n.cfg.Params.LatT, direct))
	choice.Candidates = len(choice.Ranked)
	if len(choice.Ranked) > 0 {
		choice.Relay, choice.EstRTT = choice.Ranked[0].Relay, choice.Ranked[0].Est
		choice.Degraded = false
	}
	transport.ReleaseMessage(resp) // the merge has read its set
	return choice, nil
}

// rankedRelays is System's one-hop merge of our close set and the
// callee's, each sorted by key, with no endpoint skip (no set holds its
// owner) and no two-hop (RelayChoice, EnsureFlow, session.Candidate: one
// relay): every shared relay whose estimate is under limit, ordered by
// estimate, then key. The merge runs twice, counting, then filling, so
// the result is allocated once at its final length; it is nil when no
// relay is admitted.
func rankedRelays(ours, theirs []transport.CloseEntry, limit time.Duration) []RelayCandidate {
	n := 0
	mergeClose(ours, theirs, wireLeg, overlay.RelayRTT, limit, func(int, time.Duration) { n++ })
	if n == 0 {
		return nil
	}
	ranked := make([]RelayCandidate, 0, n)
	mergeClose(ours, theirs, wireLeg, overlay.RelayRTT, limit, func(i int, est time.Duration) {
		ranked = append(ranked, RelayCandidate{Relay: ours[i].SurrogateAddr, Est: est})
	})
	// Emitted in key order, so a stable sort ranks by (estimate, key).
	slices.SortStableFunc(ranked, func(a, b RelayCandidate) int { return cmp.Compare(a.Est, b.Est) })
	return ranked
}

func wireLeg(e transport.CloseEntry) (string, time.Duration) { return e.ClusterKey, e.RTT }

// sortedByKey returns set as mergeClose needs it: set itself when its keys
// strictly ascend, the order every surrogate serves, else a private copy
// sorted by key with each key's first entry kept. A set off the wire is
// outside input, and over Mem a surrogate's published slice (DESIGN.md
// §15), so it is never sorted in place.
func sortedByKey(set []transport.CloseEntry) []transport.CloseEntry {
	for i := 1; i < len(set); i++ {
		if set[i-1].ClusterKey >= set[i].ClusterKey {
			cp := slices.Clone(set)
			slices.SortStableFunc(cp, func(a, b transport.CloseEntry) int { return strings.Compare(a.ClusterKey, b.ClusterKey) })
			return slices.CompactFunc(cp, func(a, b transport.CloseEntry) bool { return a.ClusterKey == b.ClusterKey })
		}
	}
	return set
}
