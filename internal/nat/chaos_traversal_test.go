package nat

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// Chaos × NAT composition: the fault injector wraps the public network
// UNDER the NAT emulator, so every public datagram — Syns, STUN, relay
// binds, forwarded voice — is subject to seeded loss and outages while
// the endpoints still traverse realistic NAT behaviour. This is the
// punch-under-loss scenario matrix ROADMAP names: the ladder must
// degrade (direct may become punched, punched may become relayed), never
// invent reachability, fail cleanly when it fails, and stay
// byte-identical per seed.

// chaosLadderConfig gives discovery enough retries to survive heavy loss
// so the sweep measures the *ladder* under loss, not STUN.
func chaosLadderConfig() udp.Config {
	cfg := udp.DefaultConfig()
	cfg.StunTries = 12
	return cfg
}

// chaosTraversalOutcome runs one two-sided traversal with loss injected
// on every public send and returns the caller's landing rung (PathNone
// on clean failure) plus the serialized trace.
func chaosTraversalOutcome(t *testing.T, ta, tb Type, loss float64, seed int64) (udp.PathKind, string) {
	t.Helper()
	chaos := transport.NewChaos(nil, seed)
	chaos.DropDefault(loss)
	r := newTraversal(t, ta, tb, seededLatency(seed), chaos, chaosLadderConfig())
	var trace strings.Builder
	var l ladder
	r.clk.RunTask(func() {
		var err error
		if l, err = r.climb(nil); err != nil {
			fmt.Fprintf(&trace, "%v\n", err)
			return
		}
		fmt.Fprintf(&trace, "ext caller=%s callee=%s\n%slanded caller=%v callee=%v at=%v\n",
			l.extA, l.extB, l.log, l.ka, l.kb, r.clk.Now())
	})
	return l.ka, trace.String()
}

// TestChaosTraversalMatrix sweeps loss × the full 4×4 NAT matrix. Under
// loss the ladder may escalate past the clean-network rung but can never
// de-escalate below it (loss cannot make a NAT admit a packet it would
// have refused), and a total failure must be a clean error, not a wrong
// rung.
func TestChaosTraversalMatrix(t *testing.T) {
	losses := []float64{0.05, 0.15, 0.30}
	for _, loss := range losses {
		for _, ta := range Types {
			for _, tb := range Types {
				ta, tb, loss := ta, tb, loss
				t.Run(fmt.Sprintf("loss%.0f%%/%v→%v", loss*100, ta, tb), func(t *testing.T) {
					got, trace := chaosTraversalOutcome(t, ta, tb, loss, 99)
					clean := wantPath(ta, tb)
					if got != udp.PathNone && got < clean {
						t.Errorf("loss %.2f landed on %v, below the clean-network rung %v:\n%s",
							loss, got, clean, trace)
					}
					if got == udp.PathNone &&
						!strings.Contains(trace, "err=") && !strings.Contains(trace, "failed") {
						t.Errorf("no path and no clean error:\n%s", trace)
					}
				})
			}
		}
	}
}

// TestChaosTraversalDeterministic: the lossy runs are as reproducible as
// the clean ones — drops come from the seeded RNG, so two runs with one
// seed serialize identical traces.
func TestChaosTraversalDeterministic(t *testing.T) {
	var traces []string
	for _, loss := range []float64{0.15, 0.30} {
		for _, ta := range Types {
			for _, tb := range Types {
				_, one := chaosTraversalOutcome(t, ta, tb, loss, 7)
				_, two := chaosTraversalOutcome(t, ta, tb, loss, 7)
				if one != two {
					t.Errorf("loss %.2f %v→%v: runs diverged:\n--- run 1\n%s--- run 2\n%s",
						loss, ta, tb, one, two)
				}
				traces = append(traces, one)
			}
		}
	}
	checkTraces(t, traces, chaosTraceSHA)
}

// TestOutageOverPunchFallsToRelay: an outage window blanketing both
// peers' external addresses through the direct and punch phases must
// sink every Syn; the ladder has to fall through to the relay — whose
// own address stays reachable — and the punch failure must be silent
// and clean. Byte-identical per seed.
func TestOutageOverPunchFallsToRelay(t *testing.T) {
	run := func(seed int64) string {
		chaos := transport.NewChaos(nil, seed)
		// Port-restricted on both sides: a pairing that always punches on
		// a clean network (see wantPath), so landing on the relay here is
		// attributable to the outage alone.
		r := newTraversal(t, PortRestricted, PortRestricted,
			func(from, to transport.Addr) time.Duration { return 5 * time.Millisecond },
			chaos, udp.DefaultConfig())
		var trace strings.Builder
		r.clk.RunTask(func() {
			l, err := r.climb(func(extA, extB transport.Addr) {
				// The outage outlives direct (400ms) + punch (1600ms): every
				// Syn toward either external address vanishes mid-retry. The
				// relay rung starts at 2.0s still inside the outage — its
				// *bind* goes to the relay (reachable), but the PTRelayBound
				// confirmations toward the ext addrs are swallowed until the
				// window lifts and the bind retries get through.
				chaos.OutageFor(extA, 2200*time.Millisecond)
				chaos.OutageFor(extB, 2200*time.Millisecond)
			})
			if err != nil {
				t.Fatal(err)
			}
			if l.ea != nil || l.eb != nil {
				t.Errorf("establish errors under outage: %v / %v", l.ea, l.eb)
			}
			if l.ka != udp.PathRelayed || l.kb != udp.PathRelayed {
				t.Errorf("paths = %v/%v, want relayed/relayed (outage must defeat punching)", l.ka, l.kb)
			}
			fmt.Fprintf(&trace, "paths %v/%v at=%v outaged=%d\n", l.ka, l.kb, r.clk.Now(), chaos.Stats().Outaged)
			// Voice flows once established, through the relay.
			var heard int
			r.fb.SetVoiceHandler(func(udp.Packet, transport.Addr) { heard++ })
			for i := 0; i < 10; i++ {
				if err := r.fa.SendVoice([]byte("frame")); err != nil {
					t.Fatal(err)
				}
				r.clk.Sleep(20 * time.Millisecond)
			}
			r.clk.Sleep(100 * time.Millisecond)
			if heard != 10 {
				t.Errorf("heard %d/10 voice packets after outage fallback", heard)
			}
			fmt.Fprintf(&trace, "heard=%d relay=%d\n", heard, r.relay.Forwarded())
		})
		return trace.String()
	}
	one := run(5)
	two := run(5)
	if one != two {
		t.Errorf("outage runs diverged:\n--- run 1\n%s--- run 2\n%s", one, two)
	}
	if !strings.Contains(one, "paths relayed/relayed") {
		t.Errorf("trace:\n%s", one)
	}
	checkTraces(t, []string{one}, outageTraceSHA)
}
