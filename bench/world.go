package main

import (
	"time"

	"asap/internal/eval"
	"asap/internal/netmodel"
)

// The world under call_sim and select_small is eval.BuildWorld of the
// `small` profile (its own fixed seed): one Internet and one session
// population, so per-operation costs are comparable across benchmark
// seeds. The benchmark seed decides what happens on it: which calls are
// placed in which order, the protocol's measurement noise, the edited AS.
// The program under test only ever sees generated inputs.

func worldProfile(smoke bool) eval.Profile {
	if smoke {
		return eval.Tiny
	}
	return eval.Small
}

// drawSessions draws sessions with World.RandomSessions — the world's own
// seeded stream, so the result is a pure function of the world — until it
// has nLatent sessions whose direct RTT is at or above latT and nOther
// below it, keeping draw order inside each class. maxDraws bounds the
// search.
func drawSessions(w *eval.World, nLatent, nOther int, latT time.Duration, maxDraws int) (latent, other []eval.Session) {
	const batch = 1000
	for d := 0; d < maxDraws && (len(latent) < nLatent || len(other) < nOther); d += batch {
		for _, s := range w.RandomSessions(batch) {
			rtt, ok := w.DirectRTT(s)
			if !ok {
				continue
			}
			if rtt >= latT {
				if len(latent) < nLatent {
					latent = append(latent, s)
				}
			} else if len(other) < nOther {
				other = append(other, s)
			}
		}
	}
	return latent, other
}

// directMOS scores a session's direct path the way the evaluation scores
// relay paths: E-Model, G.729A, the fixed evaluation loss rate.
func directMOS(w *eval.World, s eval.Session) float64 {
	rtt, ok := w.DirectRTT(s)
	if !ok {
		return 1
	}
	return netmodel.MOSFromRTT(rtt, eval.EvalLossRate, netmodel.CodecG729A)
}
