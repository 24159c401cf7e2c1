package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		Attempts:   attempts,
		BaseDelay:  time.Millisecond,
		MaxDelay:   4 * time.Millisecond,
		Multiplier: 2,
	}
}

func TestRetryTransientEventuallySucceeds(t *testing.T) {
	calls := 0
	err := fastRetry(4).Do(context.Background(), wallSched, nil, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("%w: x", transport.ErrUnreachable)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
}

func TestRetryNonTransientFailsImmediately(t *testing.T) {
	calls := 0
	boom := errors.New("handler rejected")
	err := fastRetry(4).Do(context.Background(), wallSched, nil, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Fatalf("op ran %d times, want 1 (no retry for protocol errors)", calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	err := fastRetry(3).Do(context.Background(), wallSched, nil, func() error {
		calls++
		return fmt.Errorf("%w: down", transport.ErrUnreachable)
	})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("Do = %v, want ErrUnreachable", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want exactly Attempts=3", calls)
	}
}

func TestRetryContextCancelStopsBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := RetryPolicy{Attempts: 10, BaseDelay: time.Hour, MaxDelay: time.Hour, Multiplier: 2}
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, wallSched, nil, func() error {
			calls++
			return fmt.Errorf("%w: down", transport.ErrUnreachable)
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("Do = %v, want the op's last error, not the cancel", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not return after context cancellation")
	}
	if calls != 1 {
		t.Fatalf("op ran %d times, want 1", calls)
	}
}

func TestRetryZeroValueUsesDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	d := DefaultRetryPolicy()
	// Jitter's zero value means "no jitter" (a zero field cannot signal
	// "unset"); every other field inherits the default.
	d.Jitter = 0
	if p != d {
		t.Fatalf("zero policy withDefaults = %+v, want %+v", p, d)
	}
	// A zero-value policy must still terminate.
	calls := 0
	err := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}.Do(
		context.Background(), wallSched, nil, func() error {
			calls++
			return fmt.Errorf("%w: down", transport.ErrUnreachable)
		})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("Do = %v", err)
	}
	if calls != d.Attempts {
		t.Fatalf("op ran %d times, want default Attempts=%d", calls, d.Attempts)
	}
}

// TestRetryVirtualBackoffDeterministic: under the virtual clock, the full
// jittered backoff schedule is a pure function of the RNG seed — same
// seed, identical retry instants; different seed, different jitter.
func TestRetryVirtualBackoffDeterministic(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		clk := sim.NewClock()
		rng := sim.NewRNG(seed)
		p := RetryPolicy{
			Attempts: 4, BaseDelay: 50 * time.Millisecond,
			MaxDelay: time.Second, Multiplier: 2, Jitter: 0.2,
		}
		var at []time.Duration
		clk.RunTask(func() {
			_ = p.Do(context.Background(), clk, rng.Float64, func() error {
				at = append(at, clk.Now())
				return fmt.Errorf("%w: down", transport.ErrUnreachable)
			})
		})
		return at
	}
	a, b := schedule(42), schedule(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if len(a) != 4 {
		t.Fatalf("attempted %d times, want 4", len(a))
	}
	if a[1] < 50*time.Millisecond || a[1] > 60*time.Millisecond {
		t.Errorf("first retry at %v, want base 50ms + up to 20%% jitter", a[1])
	}
	c := schedule(7)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced identical jittered schedules")
	}
}

// TestNodeJitterIsAFunctionOfSeedAddressAndDraw: a node's retry jitter
// needs no generator — the same seed and address give the same draws in
// [0,1), another address or seed different ones.
func TestNodeJitterIsAFunctionOfSeedAddressAndDraw(t *testing.T) {
	draws := func(seed int64, addr transport.Addr) []float64 {
		n := &Node{cfg: NodeConfig{Seed: seed}, addr: addr}
		out := make([]float64, 64)
		for i := range out {
			out[i] = n.jitter()
			if out[i] < 0 || out[i] >= 1 {
				t.Fatalf("draw %d = %g, want [0,1)", i, out[i])
			}
		}
		return out
	}
	a := draws(42, "h1")
	if fmt.Sprint(a) != fmt.Sprint(draws(42, "h1")) {
		t.Error("same seed and address, different jitter")
	}
	if a[0] == a[1] {
		t.Error("consecutive draws are equal")
	}
	if fmt.Sprint(a) == fmt.Sprint(draws(42, "h2")) || fmt.Sprint(a) == fmt.Sprint(draws(7, "h1")) {
		t.Error("jitter does not depend on the address and the seed")
	}
	var mean float64
	for _, x := range a {
		mean += x / float64(len(a))
	}
	if mean < 0.3 || mean > 0.7 {
		t.Errorf("mean of 64 draws = %.2f, want about 0.5", mean)
	}
}
