package nat

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"asap/internal/sim"
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
	clk := sim.NewClock()
	pub := transport.NewMem()
	pub.Sched = clk
	defer func() { _ = pub.Close() }()
	rng := sim.NewRNG(seed)
	lats := map[string]time.Duration{}
	pub.Latency = func(from, to transport.Addr) time.Duration {
		key := string(from) + "→" + string(to)
		if d, ok := lats[key]; ok {
			return d
		}
		d := time.Duration(rng.Uniform(2e6, 12e6)) // ns
		lats[key] = d
		return d
	}

	chaos := transport.NewChaos(nil, seed)
	chaos.Sched = clk
	chaos.DropDefault(loss)
	lossy := chaos.PacketNetwork(pub)

	stun, err := udp.NewSTUNServer(lossy, "stun.example:3478")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := udp.NewRelayServerWith(lossy, "relay.example:5000", clk, udp.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	boxA := New(ta, lossy, "203.0.113.1", 40000)
	boxB := New(tb, lossy, "198.51.100.1", 41000)
	defer func() { _ = boxA.Close() }()
	defer func() { _ = boxB.Close() }()

	cfg := chaosLadderConfig()
	epA, err := udp.NewEndpoint(boxA, clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := udp.NewEndpoint(boxB, clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const token = 1
	fa, err := epA.Open("10.0.0.2:5000", token)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := epB.Open("192.168.1.2:5000", token)
	if err != nil {
		t.Fatal(err)
	}

	var trace strings.Builder
	var ka, kb udp.PathKind
	clk.RunTask(func() {
		extA, err := fa.Discover(stun.Addr())
		if err != nil {
			fmt.Fprintf(&trace, "discover caller failed: %v\n", err)
			return
		}
		extB, err := fb.Discover(stun.Addr())
		if err != nil {
			fmt.Fprintf(&trace, "discover callee failed: %v\n", err)
			return
		}
		fmt.Fprintf(&trace, "ext caller=%s callee=%s\n", extA, extB)
		done := 0
		dw := clk.NewWaiter()
		clk.Go(func() {
			k, err := fa.Establish(extB, relay.Addr(), true)
			ka = k
			fmt.Fprintf(&trace, "caller path=%v err=%v\n", k, err)
			if done++; done == 2 {
				dw.Wake()
			}
		})
		clk.Go(func() {
			k, err := fb.Establish(extA, relay.Addr(), false)
			kb = k
			fmt.Fprintf(&trace, "callee path=%v err=%v\n", k, err)
			if done++; done == 2 {
				dw.Wake()
			}
		})
		dw.Wait(-1)
		fmt.Fprintf(&trace, "landed caller=%v callee=%v at=%v\n", ka, kb, clk.Now())
	})
	_ = kb
	return ka, trace.String()
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
	for _, loss := range []float64{0.15, 0.30} {
		for _, ta := range Types {
			for _, tb := range Types {
				_, one := chaosTraversalOutcome(t, ta, tb, loss, 7)
				_, two := chaosTraversalOutcome(t, ta, tb, loss, 7)
				if one != two {
					t.Errorf("loss %.2f %v→%v: runs diverged:\n--- run 1\n%s--- run 2\n%s",
						loss, ta, tb, one, two)
				}
			}
		}
	}
}

// TestOutageOverPunchFallsToRelay: an outage window blanketing both
// peers' external addresses through the direct and punch phases must
// sink every Syn; the ladder has to fall through to the relay — whose
// own address stays reachable — and the punch failure must be silent
// and clean. Byte-identical per seed.
func TestOutageOverPunchFallsToRelay(t *testing.T) {
	run := func(seed int64) string {
		clk := sim.NewClock()
		pub := transport.NewMem()
		pub.Sched = clk
		defer func() { _ = pub.Close() }()
		pub.Latency = func(from, to transport.Addr) time.Duration { return 5 * time.Millisecond }

		chaos := transport.NewChaos(nil, seed)
		chaos.Sched = clk
		lossy := chaos.PacketNetwork(pub)
		stun, err := udp.NewSTUNServer(lossy, "stun.example:3478")
		if err != nil {
			t.Fatal(err)
		}
		relay, err := udp.NewRelayServerWith(lossy, "relay.example:5000", clk, udp.RelayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Port-restricted on both sides: a pairing that always punches on
		// a clean network (see wantPath), so landing on the relay here is
		// attributable to the outage alone.
		boxA := New(PortRestricted, lossy, "203.0.113.1", 40000)
		boxB := New(PortRestricted, lossy, "198.51.100.1", 41000)
		defer func() { _ = boxA.Close() }()
		defer func() { _ = boxB.Close() }()
		cfg := udp.DefaultConfig()
		epA, _ := udp.NewEndpoint(boxA, clk, cfg)
		epB, _ := udp.NewEndpoint(boxB, clk, cfg)
		const token = 1
		fa, _ := epA.Open("10.0.0.2:5000", token)
		fb, _ := epB.Open("192.168.1.2:5000", token)

		var trace strings.Builder
		clk.RunTask(func() {
			extA, err := fa.Discover(stun.Addr())
			if err != nil {
				t.Fatal(err)
			}
			extB, err := fb.Discover(stun.Addr())
			if err != nil {
				t.Fatal(err)
			}
			// The outage outlives direct (400ms) + punch (1600ms): every
			// Syn toward either external address vanishes mid-retry. The
			// relay rung starts at 2.0s still inside the outage — its
			// *bind* goes to the relay (reachable), but the PTRelayBound
			// confirmations toward the ext addrs are swallowed until the
			// window lifts and the bind retries get through.
			chaos.OutageFor(extA, 2200*time.Millisecond)
			chaos.OutageFor(extB, 2200*time.Millisecond)
			var ka, kb udp.PathKind
			var ea, eb error
			done := 0
			dw := clk.NewWaiter()
			clk.Go(func() {
				ka, ea = fa.Establish(extB, relay.Addr(), true)
				if done++; done == 2 {
					dw.Wake()
				}
			})
			clk.Go(func() {
				kb, eb = fb.Establish(extA, relay.Addr(), false)
				if done++; done == 2 {
					dw.Wake()
				}
			})
			dw.Wait(-1)
			if ea != nil || eb != nil {
				t.Errorf("establish errors under outage: %v / %v", ea, eb)
			}
			if ka != udp.PathRelayed || kb != udp.PathRelayed {
				t.Errorf("paths = %v/%v, want relayed/relayed (outage must defeat punching)", ka, kb)
			}
			fmt.Fprintf(&trace, "paths %v/%v at=%v outaged=%d\n", ka, kb, clk.Now(), chaos.Stats().Outaged)
			// Voice flows once established, through the relay.
			var heard int
			fb.SetVoiceHandler(func(udp.Packet, transport.Addr) { heard++ })
			for i := 0; i < 10; i++ {
				if err := fa.SendVoice([]byte("frame")); err != nil {
					t.Fatal(err)
				}
				clk.Sleep(20 * time.Millisecond)
			}
			clk.Sleep(100 * time.Millisecond)
			if heard != 10 {
				t.Errorf("heard %d/10 voice packets after outage fallback", heard)
			}
			fmt.Fprintf(&trace, "heard=%d relay=%d\n", heard, relay.Forwarded())
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
}
