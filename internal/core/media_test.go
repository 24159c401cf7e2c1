package core

import (
	"slices"
	"testing"
	"time"

	"asap/internal/nat"
	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// These tests close the loop the ISSUE calls for: call setup escalates
// the media path through the control plane (MsgMediaSetup), the
// traversal ladder lands where the NAT pairing dictates, and the voice
// receiver's own loss/jitter accounting reaches the session monitor's
// MOS — all deterministically under the virtual clock.

// mediaWorld is one virtual-clock world: a control-plane Mem for the
// ASAP messages and a separate public packet Mem for the data plane,
// with STUN and a voice relay on the public side.
type mediaWorld struct {
	clk  *sim.Clock
	ctrl *transport.Mem
	pub  *transport.Mem
	stun *udp.STUNServer
	rly  *udp.RelayServer
	bs   *Bootstrap
}

func newMediaWorld(t *testing.T) *mediaWorld {
	t.Helper()
	w := &mediaWorld{clk: sim.NewClock()}
	w.ctrl = transport.NewMem()
	w.ctrl.Sched = w.clk
	w.pub = transport.NewMem()
	w.pub.Sched = w.clk
	w.pub.Latency = func(from, to transport.Addr) time.Duration { return 5 * time.Millisecond }
	t.Cleanup(func() { _ = w.ctrl.Close(); _ = w.pub.Close() })
	return w
}

// boot starts the bootstrap and the data-plane services inside a
// scheduler task (both bind synchronously).
func (w *mediaWorld) boot(t *testing.T) {
	t.Helper()
	var err error
	if w.stun, err = udp.NewSTUNServer(w.pub, "stun.example:3478"); err != nil {
		t.Fatal(err)
	}
	if w.rly, err = udp.NewRelayServerWith(w.pub, "relay.example:5000", w.clk, udp.RelayConfig{}); err != nil {
		t.Fatal(err)
	}
	if w.bs, err = NewBootstrap(w.ctrl, "bs", actorBootstrapConfig()); err != nil {
		t.Fatal(err)
	}
}

func (w *mediaWorld) node(t *testing.T, addr transport.Addr, ip string, seed int64) *Node {
	t.Helper()
	n, err := NewNode(w.ctrl, addr, NodeConfig{
		IP: ip, Bootstrap: w.bs.Addr(), Params: testParams(),
		Sched: w.clk, Seed: seed,
	})
	if err != nil {
		t.Fatalf("node %s: %v", addr, err)
	}
	return n
}

// TestMediaEscalation: two nodes behind emulated NATs set up a call's
// media path over the control plane; the ladder must land on the rung
// the NAT pairing dictates, on both sides, and voice must flow. The
// caller names the relay, so a callee configured with none still meets
// it on the relay rung.
func TestMediaEscalation(t *testing.T) {
	cases := []struct {
		name          string
		ta, tb        nat.Type
		want          udp.PathKind
		calleeNoRelay bool
	}{
		{"full-cone callee goes direct", nat.PortRestricted, nat.FullCone, udp.PathDirect, false},
		{"port-restricted pair punches", nat.PortRestricted, nat.PortRestricted, udp.PathPunched, false},
		{"symmetric pair falls back to relay", nat.Symmetric, nat.Symmetric, udp.PathRelayed, false},
		{"symmetric pair meets on the caller's relay", nat.Symmetric, nat.Symmetric, udp.PathRelayed, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := newMediaWorld(t)
			boxA := nat.New(tc.ta, w.pub, "203.0.113.1", 40000)
			boxB := nat.New(tc.tb, w.pub, "198.51.100.1", 41000)
			defer func() { _ = boxA.Close(); _ = boxB.Close() }()
			w.clk.RunTask(func() {
				w.boot(t)
				caller := w.node(t, "c", "10.100.0.1", 1)
				callee := w.node(t, "d", "10.200.0.1", 2)
				defer caller.Close()
				defer callee.Close()
				for n, box := range map[*Node]*nat.Box{caller: boxA, callee: boxB} {
					host, relay := "10.0.0.2", w.rly.Addr()
					if n == callee {
						host = "192.168.1.2"
						if tc.calleeNoRelay {
							relay = ""
						}
					}
					if err := n.EnableMedia(MediaConfig{
						Net: box, ListenHost: host, BasePort: 5000,
						STUN: w.stun.Addr(), Relay: relay,
					}); err != nil {
						t.Fatal(err)
					}
				}

				mc, err := caller.SetupMedia(callee.Addr())
				if err != nil {
					t.Fatalf("setup media: %v", err)
				}
				if got := mc.Path(); got != tc.want {
					t.Errorf("caller path = %v, want %v", got, tc.want)
				}
				cmc := callee.MediaCallWith(caller.Addr())
				if cmc == nil {
					t.Fatal("callee holds no media call for the caller")
				}
				k, err := cmc.WaitEstablished(5 * time.Second)
				if err != nil {
					t.Fatalf("callee establish: %v", err)
				}
				if k != tc.want {
					t.Errorf("callee path = %v, want %v", k, tc.want)
				}

				// Voice must flow callee -> caller on the chosen rung.
				heard := 0
				mc.Flow().SetVoiceHandler(func(udp.Packet, transport.Addr) { heard++ })
				for i := 0; i < 20; i++ {
					if err := cmc.Flow().SendVoice([]byte("frame")); err != nil {
						t.Fatalf("send voice: %v", err)
					}
					w.clk.Sleep(20 * time.Millisecond)
				}
				w.clk.Sleep(100 * time.Millisecond)
				if heard != 20 {
					t.Errorf("caller heard %d/20 voice packets", heard)
				}
				wantFwd := int64(0)
				if tc.want == udp.PathRelayed {
					wantFwd = 20
				}
				if got := w.rly.Forwarded(); got != wantFwd {
					t.Errorf("relay forwarded %d packets, want %d", got, wantFwd)
				}
			})
		})
	}
}

// TestMediaLossFeedsSessionMOS: voice loss injected on the media path —
// invisible to control-plane probes — must drag the session's MOS down
// through the MediaCall -> session.MediaSource wiring, and recover when
// the loss clears.
func TestMediaLossFeedsSessionMOS(t *testing.T) {
	w := newMediaWorld(t)
	ch := transport.NewChaos(nil, 7)
	calleeNet := ch.PacketNetwork(w.pub)
	w.clk.RunTask(func() {
		w.boot(t)
		caller := w.node(t, "c", "10.100.0.1", 1)
		callee := w.node(t, "d", "10.200.0.1", 2)
		defer caller.Close()
		defer callee.Close()
		if err := caller.EnableMedia(MediaConfig{
			Net: w.pub, ListenHost: "10.0.0.2", BasePort: 6000, STUN: w.stun.Addr(),
		}); err != nil {
			t.Fatal(err)
		}
		if err := callee.EnableMedia(MediaConfig{
			Net: calleeNet, ListenHost: "10.0.0.3", BasePort: 6000, STUN: w.stun.Addr(),
		}); err != nil {
			t.Fatal(err)
		}

		mc, err := caller.SetupMedia(callee.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cmc := callee.MediaCallWith(caller.Addr())
		if cmc == nil {
			t.Fatal("callee holds no media call")
		}
		if _, err := cmc.WaitEstablished(5 * time.Second); err != nil {
			t.Fatal(err)
		}

		cfg := session.DefaultConfig()
		mgr, err := session.NewManager(cfg, w.clk, caller, session.WithFlowOpener(caller.EnsureFlow))
		if err != nil {
			t.Fatal(err)
		}
		s, err := mgr.Open(callee.Addr(), session.Candidate{Relay: "", Est: 10 * time.Millisecond}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.AttachMedia(mc.MediaSource())
		mgr.Start()

		// stream pushes one probe window's worth of callee->caller voice
		// (50 pkt/s for the whole ProbeInterval, padded past the tick).
		stream := func() {
			n := int(cfg.ProbeInterval / (20 * time.Millisecond))
			for i := 0; i < n-5; i++ {
				if err := cmc.Flow().SendVoice([]byte("frame")); err != nil {
					t.Fatalf("send voice: %v", err)
				}
				w.clk.Sleep(20 * time.Millisecond)
			}
			w.clk.Sleep(120 * time.Millisecond)
		}

		stream() // tick 1: media baseline only
		stream() // tick 2: clean media window
		cleanMOS := s.LastMOS()
		if cleanMOS < 4.0 {
			t.Fatalf("clean MOS = %.2f, want > 4.0 on a clean direct path", cleanMOS)
		}

		// Voice loss the probes cannot see: drop 30% of the callee's
		// datagrams toward the caller's media socket.
		ch.DropTo(mc.Flow().LocalAddr(), 0.3)
		stream() // tick 3: lossy media window
		lossyMOS := s.LastMOS()
		if lossyMOS >= cleanMOS-0.5 {
			t.Errorf("MOS %.2f under 30%% media loss, want well below clean %.2f", lossyMOS, cleanMOS)
		}
		h := s.History()
		last := h[len(h)-1]
		if last.MediaLoss < 0.15 || last.MediaLoss > 0.45 {
			t.Errorf("sample media loss = %.3f, want ~0.3", last.MediaLoss)
		}

		// Loss clears; the score must come back.
		ch.DropTo(mc.Flow().LocalAddr(), 0)
		stream() // tick 4: clean again
		if got := s.LastMOS(); got < cleanMOS-0.3 {
			t.Errorf("MOS %.2f after loss cleared, want ~%.2f", got, cleanMOS)
		}
	})
}

// plainMediaPair boots w and returns a caller and a callee whose media
// sockets bind on pub with no NAT between them, and a relay rung. Must
// run inside a task.
func plainMediaPair(t *testing.T, w *mediaWorld, pub transport.PacketNetwork) (caller, callee *Node) {
	t.Helper()
	w.boot(t)
	caller = w.node(t, "c", "10.100.0.1", 1)
	callee = w.node(t, "d", "10.200.0.1", 2)
	for i, n := range []*Node{caller, callee} {
		if err := n.EnableMedia(MediaConfig{
			Net: pub, ListenHost: []string{"10.0.0.2", "10.0.0.3"}[i], BasePort: 6000,
			STUN: w.stun.Addr(), Relay: w.rly.Addr(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return caller, callee
}

// calleeCallDuringSetup starts caller.SetupMedia in its own task and
// returns the callee's half of the call as soon as it exists, while its
// ladder is still climbing.
func calleeCallDuringSetup(t *testing.T, w *mediaWorld, caller, callee *Node) *MediaCall {
	t.Helper()
	w.clk.Go(func() {
		if _, err := caller.SetupMedia(callee.Addr()); err != nil {
			t.Errorf("setup media: %v", err)
		}
	})
	for i := 0; i < 1000; i++ {
		if cmc := callee.MediaCallWith(caller.Addr()); cmc != nil {
			return cmc
		}
		w.clk.Sleep(time.Millisecond)
	}
	t.Fatal("callee never opened its half of the call")
	return nil
}

// TestMediaWaitAfterTimeout: a WaitEstablished that timed out does not
// spoil the next one, which returns the rung the ladder lands on.
func TestMediaWaitAfterTimeout(t *testing.T) {
	w := newMediaWorld(t)
	w.clk.RunTask(func() {
		caller, callee := plainMediaPair(t, w, w.pub)
		defer caller.Close()
		defer callee.Close()
		cmc := calleeCallDuringSetup(t, w, caller, callee)
		if k, err := cmc.WaitEstablished(time.Millisecond); err == nil {
			t.Fatalf("1 ms wait = %v, want a time-out while the ladder climbs", k)
		}
		if k, err := cmc.WaitEstablished(5 * time.Second); err != nil || k != udp.PathDirect {
			t.Errorf("wait after a timed-out wait = %v/%v, want direct", k, err)
		}
	})
}

// TestMediaWaitWakesEveryWaiter: two tasks waiting on one call both wake
// when the ladder lands, at that instant.
func TestMediaWaitWakesEveryWaiter(t *testing.T) {
	w := newMediaWorld(t)
	w.clk.RunTask(func() {
		caller, callee := plainMediaPair(t, w, w.pub)
		defer caller.Close()
		defer callee.Close()
		cmc := calleeCallDuringSetup(t, w, caller, callee)
		start := w.clk.Now()
		var woke []time.Duration
		for i := 0; i < 2; i++ {
			w.clk.Go(func() {
				if k, err := cmc.WaitEstablished(5 * time.Second); err != nil || k != udp.PathDirect {
					t.Errorf("waiter %d = %v/%v, want direct", i, k, err)
				}
				woke = append(woke, w.clk.Now()-start)
			})
		}
		w.clk.Sleep(6 * time.Second)
		if len(woke) != 2 || woke[0] != woke[1] || woke[0] >= time.Second {
			t.Errorf("waiters woke after %v, want both at once when the ladder lands", woke)
		}
	})
}

// TestMediaPathAgreesWithFlow: during a re-climb the call reports what
// its flow reports — none until the new rung lands, then that rung —
// because the flow is the one holder of the ladder's state.
func TestMediaPathAgreesWithFlow(t *testing.T) {
	w := newMediaWorld(t)
	ch := transport.NewChaos(nil, 5)
	ch.Sched = w.clk
	w.clk.RunTask(func() {
		caller, callee := plainMediaPair(t, w, ch.PacketNetwork(w.pub))
		defer caller.Close()
		defer callee.Close()
		mc, err := caller.SetupMedia(callee.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cmc := callee.MediaCallWith(caller.Addr())
		// Sever the direct path: the next round can only land on the relay.
		w.clk.Sleep(100 * time.Millisecond)
		ch.Blackhole(mc.Flow().LocalAddr())
		ch.Blackhole(cmc.Flow().LocalAddr())
		done := false
		w.clk.Go(func() {
			if k, err := mc.Reestablish(w.rly.Addr()); err != nil {
				t.Errorf("reestablish = %v/%v", k, err)
			}
			done = true
		})
		// The rungs the call reports, each run of equal reads counted once.
		steps := []udp.PathKind{mc.Path()}
		for !done {
			w.clk.Sleep(10 * time.Millisecond)
			k := mc.Path()
			if fk := mc.Flow().Path(); k != fk {
				t.Fatalf("call path %v, flow path %v: they must agree", k, fk)
			}
			if k != steps[len(steps)-1] {
				steps = append(steps, k)
			}
		}
		if want := []udp.PathKind{udp.PathDirect, udp.PathNone, udp.PathRelayed}; !slices.Equal(steps, want) {
			t.Errorf("path steps %v, want %v", steps, want)
		}
		if mc.Relay() != w.rly.Addr() || mc.Reestablishments() != 1 {
			t.Errorf("relay %q, reestablishments %d: want the relay and 1", mc.Relay(), mc.Reestablishments())
		}
	})
}

// TestMediaPortsWrap: a node's media ports run from BasePort to 65535,
// then from BasePort again, past the ports its live calls still hold;
// a base port outside the range is refused.
func TestMediaPortsWrap(t *testing.T) {
	w := newMediaWorld(t)
	w.clk.RunTask(func() {
		w.boot(t)
		caller := w.node(t, "c", "10.100.0.1", 1)
		callee := w.node(t, "d", "10.200.0.1", 2)
		defer caller.Close()
		defer callee.Close()
		if err := caller.EnableMedia(MediaConfig{Net: w.pub, ListenHost: "10.0.0.2", BasePort: 65536, STUN: w.stun.Addr()}); err == nil {
			t.Error("EnableMedia took base port 65536")
		}
		for i, n := range []*Node{caller, callee} {
			if err := n.EnableMedia(MediaConfig{
				Net: w.pub, ListenHost: []string{"10.0.0.2", "10.0.0.3"}[i], BasePort: []int{65534, 6000}[i],
				STUN: w.stun.Addr(),
			}); err != nil {
				t.Fatal(err)
			}
		}
		var got []transport.Addr
		for i := range 4 {
			mc, err := caller.SetupMedia(callee.Addr())
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			got = append(got, mc.Flow().LocalAddr())
			if i > 0 { // the first call holds 65534 throughout
				_ = mc.Close()
			}
		}
		want := []transport.Addr{"10.0.0.2:65534", "10.0.0.2:65535", "10.0.0.2:65535", "10.0.0.2:65535"}
		if !slices.Equal(got, want) {
			t.Errorf("media sockets %v, want %v", got, want)
		}
	})
}

// TestPlacedCallAllocs gates one whole warm call on the media harness,
// placed the way call_sim places one: SetupCall; SetupMedia across two
// symmetric NATs, so the ladder climbs direct, punched and relayed
// rungs with a keyed relay proof; a talk-spurt under a session monitor
// with one probe tick; teardown. The call allocates what it keeps or
// hands out: its RelayChoice, ranked once at its length, and probe
// results; on each side a MediaCall, a Flow with its bound packet
// handler and its one waiter, a media address and a NAT socket; the
// relay's flow entry; the Manager and its two loop functions, and the
// hysteresis maps and samples its session keeps from the scored tick;
// the media poll; the callee's ladder task. The NAT mappings come out
// of the boxes' reserves still bound, so they bind and format nothing,
// and the external addresses STUN reports are ones the endpoints
// learned before.
func TestPlacedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := newMediaWorld(t)
	boxA := nat.New(nat.Symmetric, w.pub, "203.0.113.1", 40000)
	boxB := nat.New(nat.Symmetric, w.pub, "198.51.100.1", 41000)
	defer func() { _ = boxA.Close(); _ = boxB.Close() }()
	cfg := session.DefaultConfig()
	cfg.Backups = 1
	cfg.ProbeInterval = 100 * time.Millisecond
	cfg.KeepaliveInterval = 250 * time.Millisecond
	payload := make([]byte, 20)
	var allocs float64
	heard, relayed := 0, 0
	w.clk.RunTask(func() {
		w.boot(t)
		caller := w.node(t, "c", "10.100.0.1", 1)
		callee := w.node(t, "d", "10.200.0.1", 2)
		defer caller.Close()
		defer callee.Close()
		for i, n := range []*Node{caller, callee} {
			if err := n.EnableMedia(MediaConfig{
				Net: []*nat.Box{boxA, boxB}[i], ListenHost: []string{"10.0.0.2", "192.168.1.2"}[i], BasePort: 5000,
				STUN: w.stun.Addr(), Relay: w.rly.Addr(), RelayKey: []byte("relay-secret"),
			}); err != nil {
				t.Fatal(err)
			}
		}
		onVoice := func(udp.Packet, transport.Addr) { heard++ }
		call := func() {
			choice, err := caller.SetupCall(callee.Addr())
			if err != nil {
				t.Fatalf("setup call: %v", err)
			}
			mc, err := caller.SetupMedia(callee.Addr())
			if err != nil {
				t.Fatalf("setup media: %v", err)
			}
			if mc.Path() == udp.PathRelayed {
				relayed++
			}
			cmc := callee.MediaCallWith(caller.Addr())
			if _, err := cmc.WaitEstablished(10 * time.Second); err != nil {
				t.Fatalf("callee establish: %v", err)
			}
			mgr, err := session.NewManager(cfg, w.clk, caller, session.WithFlowOpener(caller.EnsureFlow))
			if err != nil {
				t.Fatal(err)
			}
			s, err := mgr.Open(callee.Addr(), session.Candidate{Relay: choice.Relay, Est: choice.EstRTT}, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.AttachMedia(cmc.MediaSource())
			mgr.Start()
			cmc.Flow().SetVoiceHandler(onVoice)
			for range 8 {
				if err := mc.Flow().SendVoice(payload); err != nil {
					t.Fatalf("send voice: %v", err)
				}
				w.clk.Sleep(20 * time.Millisecond)
			}
			mgr.Close()
			w.clk.Sleep(time.Second)
			_ = mc.Close()
			_ = cmc.Close()
			w.clk.Sleep(100 * time.Millisecond)
		}
		for range 5 {
			call()
		}
		allocs = testing.AllocsPerRun(50, call)
	})
	if relayed != 56 || heard != 56*8 {
		t.Fatalf("%d of 56 calls relayed, %d of %d voice packets heard", relayed, heard, 56*8)
	}
	if allocs > 28 {
		t.Errorf("a warm placed call: %.0f allocs, want at most 28", allocs)
	}
}
