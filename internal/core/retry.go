package core

import (
	"context"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// RetryPolicy is the capped-exponential-backoff schedule applied to every
// control-plane call (join, surrogate registration and renewal, nodal
// publication, close-set and surrogate fetches). Only transport-level
// failures (transport.IsTransient) are retried: a remote handler
// rejecting the request is a protocol error no retry can fix.
//
// The zero value means DefaultRetryPolicy (with jitter disabled, since a
// zero Jitter cannot signal "unset"); set Attempts to 1 to disable
// retrying.
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first.
	Attempts int
	// BaseDelay is the wait before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the grown delay.
	MaxDelay time.Duration
	// Multiplier grows the delay after each retry (>= 1).
	Multiplier float64
	// Jitter adds up to this fraction of the delay, randomized, so that a
	// crowd of members retrying a dead surrogate does not stampede the
	// bootstrap in lockstep.
	Jitter float64
}

// DefaultRetryPolicy returns four attempts spanning roughly 50 + 100 +
// 200 ms, plus up to 20 % jitter. The daemon passes a zero RetryPolicy,
// so it runs these attempts and delays without jitter: withDefaults
// leaves a zero Jitter at 0.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Attempts:   4,
		BaseDelay:  50 * time.Millisecond,
		MaxDelay:   time.Second,
		Multiplier: 2,
		Jitter:     0.2,
	}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.Attempts <= 0 {
		p.Attempts = d.Attempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = d.Multiplier
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Do runs op until it succeeds, fails non-transiently, exhausts the
// attempt budget, or ctx is canceled during a backoff wait. It returns
// op's last error (never swallowing it for a cancellation). Backoff
// waits run on s, so the schedule costs nothing under a virtual clock.
// jitter supplies the randomization in [0,1) — callers inject a seeded
// per-node stream (see Node.jitter) so retry timing is reproducible;
// nil disables jitter regardless of p.Jitter.
func (p RetryPolicy) Do(ctx context.Context, s sim.Scheduler, jitter func() float64, op func() error) error {
	p = p.withDefaults()
	delay := p.BaseDelay
	var err error
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if !transport.IsTransient(err) || attempt >= p.Attempts-1 {
			return err
		}
		d := delay
		if p.Jitter > 0 && jitter != nil {
			d += time.Duration(p.Jitter * jitter() * float64(delay))
		}
		if s.SleepCtx(ctx, d) != nil {
			return err
		}
		delay = time.Duration(float64(delay) * p.Multiplier)
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}
