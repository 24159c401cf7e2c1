package nat

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// traversal is one public internet for a two-sided call: a Mem under a
// virtual clock, seen through a Chaos when one is given, with a STUN
// server and a relay on it, and one flow behind each of two NAT boxes.
type traversal struct {
	clk    *sim.Clock
	stun   *udp.STUNServer
	relay  *udp.RelayServer
	fa, fb *udp.Flow // the caller behind box A, the callee behind box B
}

// newTraversal builds the world for a caller behind ta and a callee
// behind tb. latency is the public network's one-way delay; chaos, when
// not nil, runs on the world's clock and sits under the servers and the
// boxes, so every public datagram crosses it.
func newTraversal(t *testing.T, ta, tb Type, latency func(from, to transport.Addr) time.Duration, chaos *transport.Chaos, cfg udp.Config) *traversal {
	t.Helper()
	clk := sim.NewClock()
	pub := transport.NewMem()
	pub.Sched = clk
	pub.Latency = latency
	t.Cleanup(func() { _ = pub.Close() })
	var net transport.PacketNetwork = pub
	if chaos != nil {
		chaos.Sched = clk
		net = chaos.PacketNetwork(pub)
	}
	stun, err := udp.NewSTUNServer(net, "stun.example:3478")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := udp.NewRelayServerWith(net, "relay.example:5000", clk, udp.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	flow := func(typ Type, host string, port int, private transport.Addr) *udp.Flow {
		box := New(typ, net, host, port)
		t.Cleanup(func() { _ = box.Close() })
		ep, err := udp.NewEndpoint(box, clk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ep.Open(private, 1)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return &traversal{clk: clk, stun: stun, relay: relay,
		fa: flow(ta, "203.0.113.1", 40000, "10.0.0.2:5000"),
		fb: flow(tb, "198.51.100.1", 41000, "192.168.1.2:5000")}
}

// seededLatency draws each direction's one-way delay once, uniform in
// [2ms, 12ms), from seed.
func seededLatency(seed int64) func(from, to transport.Addr) time.Duration {
	rng := sim.NewRNG(seed)
	lats := map[string]time.Duration{}
	return func(from, to transport.Addr) time.Duration {
		key := string(from) + "→" + string(to)
		if d, ok := lats[key]; ok {
			return d
		}
		d := time.Duration(rng.Uniform(2e6, 12e6)) // ns
		lats[key] = d
		return d
	}
}

// ladder is one two-sided traversal's outcome.
type ladder struct {
	extA, extB transport.Addr
	ka, kb     udp.PathKind
	ea, eb     error
	// log has one "<side> path=<kind> err=<err>" line per side, in the
	// order the two ladders returned.
	log string
}

// climb is the call's media setup: both flows discover their external
// addresses (in the full system this rides the control plane's
// SetupCall), armed (when not nil) sees them, and both ladders start at
// one virtual instant, each toward the other's external address with
// the relay as the last rung. Call it inside a task.
func (r *traversal) climb(armed func(extA, extB transport.Addr)) (l ladder, err error) {
	if l.extA, err = r.fa.Discover(r.stun.Addr()); err != nil {
		return l, fmt.Errorf("discover caller failed: %w", err)
	}
	if l.extB, err = r.fb.Discover(r.stun.Addr()); err != nil {
		return l, fmt.Errorf("discover callee failed: %w", err)
	}
	if armed != nil {
		armed(l.extA, l.extB)
	}
	var log strings.Builder
	side := func(name string, f *udp.Flow, peer transport.Addr, caller bool, k *udp.PathKind, e *error) func() {
		return func() {
			*k, *e = f.Establish(peer, r.relay.Addr(), caller)
			fmt.Fprintf(&log, "%s path=%v err=%v\n", name, *k, *e)
		}
	}
	r.clk.Join(2,
		side("caller", r.fa, l.extB, true, &l.ka, &l.ea),
		side("callee", r.fb, l.extA, false, &l.kb, &l.eb))
	l.log = log.String()
	return l, nil
}

// Pinned sha256 digests of the determinism tests' traces, written one
// after another in loop order. Two runs of one build can agree while
// both draw the seeded latencies or the chaos RNG in a new order; the
// digests catch that.
const (
	traversalTraceSHA = "e74038e0b6cae02f8324ea4c5f9d79aad468d8f1653a7a3ad433af01ea34bfcd"
	chaosTraceSHA     = "20f34e05dca099fe1c5ced99cea3b70b022da48a767aef18422468db9829e2e0"
	outageTraceSHA    = "bd9af3be02da3efed493012875f187639a62785adf16fe490698da138789d6a5"
)

// checkTraces fails t unless the sha256 of traces, in order, is want.
func checkTraces(t *testing.T, traces []string, want string) {
	t.Helper()
	h := sha256.New()
	for _, tr := range traces {
		_, _ = io.WriteString(h, tr)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("trace digest %s, want the pinned %s", got, want)
	}
}

// traversalOutcome runs one full two-sided traversal between a caller
// behind NAT type ta and a callee behind NAT type tb, over a shared
// public Mem network with seeded random per-direction latencies, and
// returns a serialized trace of everything observable: discovered
// external addresses, both sides' path classification, voice delivery
// and the final virtual time. Identical traces across runs is the
// determinism contract.
func traversalOutcome(t *testing.T, ta, tb Type, seed int64) string {
	t.Helper()
	r := newTraversal(t, ta, tb, seededLatency(seed), nil, udp.DefaultConfig())
	var trace strings.Builder
	var heard int
	r.fb.SetVoiceHandler(func(udp.Packet, transport.Addr) { heard++ })

	r.clk.RunTask(func() {
		l, err := r.climb(nil)
		if err != nil {
			t.Fatalf("%v/%v: %v", ta, tb, err)
		}
		fmt.Fprintf(&trace, "ext caller=%s callee=%s\n", l.extA, l.extB)
		if l.ea != nil || l.eb != nil {
			t.Errorf("%v/%v: establish: %s", ta, tb, l.log)
		}
		fmt.Fprintf(&trace, "path caller=%v callee=%v at=%v\n", l.ka, l.kb, r.clk.Now())

		// Voice must flow end to end on whatever path was chosen.
		for i := 0; i < 25; i++ {
			if err := r.fa.SendVoice([]byte("frame")); err != nil {
				t.Fatalf("%v/%v: send voice: %v", ta, tb, err)
			}
			r.clk.Sleep(20 * time.Millisecond)
		}
		r.clk.Sleep(100 * time.Millisecond)
		st := r.fb.Stats()
		fmt.Fprintf(&trace, "voice heard=%d stats={pk:%d lost:%d dup:%d re:%d jit:%v} relay=%d end=%v\n",
			heard, st.Packets, st.Lost, st.Duplicates, st.Reordered, st.Jitter, r.relay.Forwarded(), r.clk.Now())
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
	// across two runs with the same seed, for every NAT pairing, and
	// equal to the pinned traces.
	var traces []string
	for _, seed := range []int64{1, 42} {
		for _, ta := range Types {
			for _, tb := range Types {
				one := traversalOutcome(t, ta, tb, seed)
				two := traversalOutcome(t, ta, tb, seed)
				if one != two {
					t.Errorf("seed %d %v→%v: runs diverged:\n--- run 1\n%s--- run 2\n%s", seed, ta, tb, one, two)
				}
				traces = append(traces, one)
			}
		}
	}
	checkTraces(t, traces, traversalTraceSHA)
}
