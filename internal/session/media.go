package session

import (
	"time"

	"asap/internal/netmodel"
)

// Media-path accounting. Probes measure what a probe experiences; the
// voice stream knows what the *call* experiences. When a session has a
// media source attached, each monitor tick also pulls the receiver-side
// voice counters (cumulative packets, sequence-gap loss, RFC 3550
// interarrival jitter — udp.Flow.Stats in the data plane), diffs them
// against the previous tick to get this window's loss, and folds both
// into the active path's E-Model score: measured voice loss replaces
// probe loss when worse, and the jitter estimate inflates the effective
// one-way delay by the de-jitter buffer it would force (2×J, the usual
// provisioning rule). MOS-driven switchover then reacts to what the
// media path is actually delivering, not just to control-plane probes.

// MediaStats is a cumulative receiver-side voice snapshot. Counters are
// monotone; the session layer works on per-window deltas.
type MediaStats struct {
	// Packets is the number of voice packets received.
	Packets int64
	// Lost is the sequence-gap loss estimate.
	Lost int64
	// Jitter is the RFC 3550 interarrival jitter estimate.
	Jitter time.Duration
}

// MediaSource polls the live voice flow's receiver accounting. It
// reports false when no media is flowing (not yet established, or
// closed), in which case the session falls back to probe-only scoring.
// Sources are called outside the manager lock, during the probe I/O
// phase; they must be safe to call from any scheduler task.
type MediaSource func() (MediaStats, bool)

// AttachMedia connects a live voice flow's accounting to the session.
// Passing nil detaches. The next monitor tick establishes the baseline
// window; the one after starts influencing the score.
func (s *Session) AttachMedia(src MediaSource) {
	s.mgr.mu.Lock()
	defer s.mgr.mu.Unlock()
	s.media = src
	s.mediaSeen = false
}

// mediaWindowLocked diffs a fresh cumulative snapshot against the
// previous tick's, returning this window's loss fraction and the current
// jitter estimate. The first snapshot only sets the baseline (ok=false:
// there is no window yet). Windows with no voice traffic report ok=false
// too — silence carries no quality information.
func (s *Session) mediaWindowLocked(cur MediaStats) (loss float64, jitter time.Duration, ok bool) {
	prev := s.lastMedia
	s.lastMedia = cur
	if !s.mediaSeen {
		s.mediaSeen = true
		return 0, 0, false
	}
	dp := cur.Packets - prev.Packets
	dl := cur.Lost - prev.Lost
	if dl < 0 {
		dl = 0 // late arrivals un-counted a loss mid-window
	}
	if dp+dl <= 0 {
		return 0, 0, false
	}
	return float64(dl) / float64(dp+dl), cur.Jitter, true
}

// scoreActiveLocked scores the active path for one tick, blending the
// probe measurement with the media window when one is available. Returns
// the MOS and whether the path measurably works (probe succeeded).
func (m *Manager) scoreActiveLocked(s *Session, p *probePlan, now time.Duration) (float64, bool) {
	pp := p.paths[0]
	sample := Sample{At: now, Relay: pp.cand.Relay}
	if pp.err != nil {
		sample.MOS = 1
		m.recordLocked(s, sample)
		s.lastMOS[pp.cand.Relay] = 1
		return 1, false
	}
	loss := pp.loss
	oneWay := pp.rtt / 2
	if p.mok {
		if mloss, jit, ok := s.mediaWindowLocked(p.mstats); ok {
			if mloss > loss {
				loss = mloss
			}
			// A receiver must buffer out the jitter; charge that buffer
			// as added mouth-to-ear delay.
			oneWay += 2 * jit
			sample.MediaLoss = mloss
			sample.Jitter = jit
		}
	}
	mos := netmodel.MOS(oneWay, loss, netmodel.CodecG729A)
	sample.RTT, sample.Loss, sample.MOS, sample.OK = pp.rtt, loss, mos, true
	m.recordLocked(s, sample)
	s.lastMOS[pp.cand.Relay] = mos
	return mos, true
}
