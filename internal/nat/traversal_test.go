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

// traversalOutcome runs one full two-sided traversal between a caller
// behind NAT type ta and a callee behind NAT type tb, over a shared
// public Mem network with seeded random per-direction latencies, and
// returns a serialized trace of everything observable: discovered
// external addresses, both sides' path classification, voice delivery
// and the final virtual time. Identical traces across runs is the
// determinism contract.
func traversalOutcome(t *testing.T, ta, tb Type, seed int64) string {
	t.Helper()
	clk := sim.NewClock()
	pub := transport.NewMem()
	pub.Sched = clk
	defer func() { _ = pub.Close() }()

	// Seeded, asymmetric link latencies: every (from, to) pair gets a
	// stable draw in [2ms, 12ms).
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

	stun, err := udp.NewSTUNServer(pub, "stun.example:3478")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := udp.NewRelayServerWith(pub, "relay.example:5000", clk, udp.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}

	boxA := New(ta, pub, "203.0.113.1", 40000)
	boxB := New(tb, pub, "198.51.100.1", 41000)
	defer func() { _ = boxA.Close() }()
	defer func() { _ = boxB.Close() }()

	cfg := udp.DefaultConfig()
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
	var heard int
	fb.SetVoiceHandler(func(udp.Packet, transport.Addr) { heard++ })

	clk.RunTask(func() {
		// Out-of-band half: both sides discover their external addresses
		// (in the full system this rides the control plane's SetupCall).
		extA, err := fa.Discover(stun.Addr())
		if err != nil {
			t.Fatalf("%v/%v: caller discover: %v", ta, tb, err)
		}
		extB, err := fb.Discover(stun.Addr())
		if err != nil {
			t.Fatalf("%v/%v: callee discover: %v", ta, tb, err)
		}
		fmt.Fprintf(&trace, "ext caller=%s callee=%s\n", extA, extB)

		// Two-sided ladder, phase-aligned by construction: both start at
		// the same virtual instant.
		var ka, kb udp.PathKind
		done := 0
		dw := clk.NewWaiter()
		clk.Go(func() {
			k, err := fa.Establish(extB, relay.Addr(), true)
			if err != nil {
				t.Errorf("%v/%v: caller establish: %v", ta, tb, err)
			}
			ka = k
			if done++; done == 2 {
				dw.Wake()
			}
		})
		clk.Go(func() {
			k, err := fb.Establish(extA, relay.Addr(), false)
			if err != nil {
				t.Errorf("%v/%v: callee establish: %v", ta, tb, err)
			}
			kb = k
			if done++; done == 2 {
				dw.Wake()
			}
		})
		dw.Wait(-1)
		fmt.Fprintf(&trace, "path caller=%v callee=%v at=%v\n", ka, kb, clk.Now())

		// Voice must flow end to end on whatever path was chosen.
		for i := 0; i < 25; i++ {
			if err := fa.SendVoice([]byte("frame")); err != nil {
				t.Fatalf("%v/%v: send voice: %v", ta, tb, err)
			}
			clk.Sleep(20 * time.Millisecond)
		}
		clk.Sleep(100 * time.Millisecond)
		st := fb.Stats()
		fmt.Fprintf(&trace, "voice heard=%d stats={pk:%d lost:%d dup:%d re:%d jit:%v} relay=%d end=%v\n",
			heard, st.Packets, st.Lost, st.Duplicates, st.Reordered, st.Jitter, relay.Forwarded(), clk.Now())
	})
	return trace.String()
}

// wantPath is the traversal matrix the data plane must realize:
//
//   - direct when the callee is full-cone (the caller's very first Syn
//     is admitted; everyone can reach a full cone),
//   - relayed when a symmetric NAT faces symmetric or port-restricted
//     (neither side can predict or admit the other's mapping),
//   - punched everywhere else.
func wantPath(caller, callee Type) udp.PathKind {
	switch {
	case callee == FullCone:
		return udp.PathDirect
	case caller == Symmetric && callee >= PortRestricted,
		callee == Symmetric && caller >= PortRestricted:
		return udp.PathRelayed
	default:
		return udp.PathPunched
	}
}

func TestTraversalMatrix(t *testing.T) {
	for _, ta := range Types {
		for _, tb := range Types {
			ta, tb := ta, tb
			t.Run(fmt.Sprintf("%v→%v", ta, tb), func(t *testing.T) {
				trace := traversalOutcome(t, ta, tb, 1234)
				want := wantPath(ta, tb)
				line := fmt.Sprintf("path caller=%v callee=%v", want, want)
				if !strings.Contains(trace, line) {
					t.Errorf("trace:\n%s\nwant %q", trace, line)
				}
				if !strings.Contains(trace, "heard=25") {
					t.Errorf("voice did not flow end to end:\n%s", trace)
				}
				// Relay forwards exactly the voice packets on relayed
				// paths and nothing otherwise.
				wantRelay := "relay=0"
				if want == udp.PathRelayed {
					wantRelay = "relay=25"
				}
				if !strings.Contains(trace, wantRelay) {
					t.Errorf("trace:\n%s\nwant %q", trace, wantRelay)
				}
			})
		}
	}
}

func TestTraversalDeterministic(t *testing.T) {
	// The whole traversal — discovery, ladder timing, voice accounting,
	// down to the jitter estimate in the trace — must be byte-identical
	// across two runs with the same seed, for every NAT pairing.
	for _, seed := range []int64{1, 42} {
		for _, ta := range Types {
			for _, tb := range Types {
				one := traversalOutcome(t, ta, tb, seed)
				two := traversalOutcome(t, ta, tb, seed)
				if one != two {
					t.Errorf("seed %d %v→%v: runs diverged:\n--- run 1\n%s--- run 2\n%s", seed, ta, tb, one, two)
				}
			}
		}
	}
}
