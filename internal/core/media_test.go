package core

import (
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
// the NAT pairing dictates, on both sides, and voice must flow.
func TestMediaEscalation(t *testing.T) {
	cases := []struct {
		name   string
		ta, tb nat.Type
		want   udp.PathKind
	}{
		{"full-cone callee goes direct", nat.PortRestricted, nat.FullCone, udp.PathDirect},
		{"port-restricted pair punches", nat.PortRestricted, nat.PortRestricted, udp.PathPunched},
		{"symmetric pair falls back to relay", nat.Symmetric, nat.Symmetric, udp.PathRelayed},
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
					host := "10.0.0.2"
					if n == callee {
						host = "192.168.1.2"
					}
					if err := n.EnableMedia(MediaConfig{
						Net: box, ListenHost: host, BasePort: 5000,
						STUN: w.stun.Addr(), Relay: w.rly.Addr(),
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
