package core

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"asap/internal/nat"
	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// These tests close the loop from set-up to score: call setup escalates
// the media path through the control plane (MsgMediaSetup), the
// traversal ladder lands where the NAT pairing dictates, and the voice
// receiver's own loss/jitter accounting reaches the session monitor's
// MOS — all deterministically under the virtual clock.

// The media tests' STUN server and voice relay, on the deployment's Mem.
const (
	stunAddr  transport.Addr = "stun.example:3478"
	relayAddr transport.Addr = "relay.example:5000"
)

// mediaPair deploys caller "c" (10.100.0.1) and callee "d" (10.200.0.1)
// on clk, with 5 ms links for control and media alike, a STUN server at
// stunAddr and a voice relay at relayAddr. caller and callee give each
// host's media plane and NAT; their Addr and IP are set here. Must run
// inside a task of clk.
func mediaPair(t *testing.T, clk *sim.Clock, caller, callee DeployHost) (*Deployment, *udp.RelayServer) {
	t.Helper()
	caller.Addr, caller.IP = "c", "10.100.0.1"
	callee.Addr, callee.IP = "d", "10.200.0.1"
	d := Deploy(t, DeployConfig{
		Clock: clk, Latency: func(_, _ transport.Addr) time.Duration { return 5 * time.Millisecond },
		Hosts: []DeployHost{caller, callee},
	})
	if _, err := udp.NewSTUNServer(d.Mem, stunAddr); err != nil {
		t.Fatal(err)
	}
	rly, err := udp.NewRelayServerWith(d.Mem, relayAddr, clk, udp.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d, rly
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
			clk := sim.NewClock()
			clk.RunTask(func() {
				calleeRelay := relayAddr
				if tc.calleeNoRelay {
					calleeRelay = ""
				}
				d, rly := mediaPair(t, clk,
					DeployHost{NAT: &tc.ta, Media: &MediaConfig{BasePort: 5000, STUN: stunAddr, Relay: relayAddr}},
					DeployHost{NAT: &tc.tb, Media: &MediaConfig{BasePort: 5000, STUN: stunAddr, Relay: calleeRelay}})
				defer d.Close()
				mc, cmc := d.SetupMedia(t, d.Nodes[0], d.Nodes[1])
				if got := mc.Path(); got != tc.want {
					t.Errorf("caller path = %v, want %v", got, tc.want)
				}
				if k := cmc.Path(); k != tc.want {
					t.Errorf("callee path = %v, want %v", k, tc.want)
				}

				// Voice must flow callee -> caller on the chosen rung.
				heard := 0
				mc.Flow().SetVoiceHandler(func(udp.Packet, transport.Addr) { heard++ })
				for i := 0; i < 20; i++ {
					if err := cmc.Flow().SendVoice([]byte("frame")); err != nil {
						t.Fatalf("send voice: %v", err)
					}
					clk.Sleep(20 * time.Millisecond)
				}
				clk.Sleep(100 * time.Millisecond)
				if heard != 20 {
					t.Errorf("caller heard %d/20 voice packets", heard)
				}
				wantFwd := int64(0)
				if tc.want == udp.PathRelayed {
					wantFwd = 20
				}
				if got := rly.Forwarded(); got != wantFwd {
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
	clk := sim.NewClock()
	ch := transport.NewChaos(nil, 7)
	clk.RunTask(func() {
		d, _ := mediaPair(t, clk, DeployHost{Media: &MediaConfig{BasePort: 6000, STUN: stunAddr}}, DeployHost{})
		defer d.Close()
		caller, callee := d.Nodes[0], d.Nodes[1]
		if err := callee.EnableMedia(MediaConfig{
			Net: ch.PacketNetwork(d.Mem), ListenHost: string(callee.Addr()), BasePort: 6000, STUN: stunAddr,
		}); err != nil {
			t.Fatal(err)
		}
		mc, cmc := d.SetupMedia(t, caller, callee)

		cfg := session.DefaultConfig()
		mgr, err := session.NewManager(cfg, clk, caller, session.WithFlowOpener(caller.EnsureFlow))
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
				clk.Sleep(20 * time.Millisecond)
			}
			clk.Sleep(120 * time.Millisecond)
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

// plainMediaPair is mediaPair with both media sockets bound at the
// node's own address on net(Mem), or the Mem itself when net is nil: no
// NAT between them, and a relay rung. Must run inside a task of clk.
func plainMediaPair(t *testing.T, clk *sim.Clock, net func(transport.PacketNetwork) transport.PacketNetwork) *Deployment {
	t.Helper()
	d, _ := mediaPair(t, clk, DeployHost{}, DeployHost{})
	var pn transport.PacketNetwork = d.Mem
	if net != nil {
		pn = net(d.Mem)
	}
	for _, n := range d.Nodes {
		if err := n.EnableMedia(MediaConfig{
			Net: pn, ListenHost: string(n.Addr()), BasePort: 6000,
			STUN: stunAddr, Relay: relayAddr,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// calleeCallDuringSetup starts caller.SetupMedia in its own task and
// returns the callee's half of the call as soon as it exists, while its
// ladder is still climbing.
func calleeCallDuringSetup(t *testing.T, clk *sim.Clock, caller, callee *Node) *MediaCall {
	t.Helper()
	clk.Go(func() {
		if _, err := caller.SetupMedia(callee.Addr()); err != nil {
			t.Errorf("setup media: %v", err)
		}
	})
	for i := 0; i < 1000; i++ {
		if cmc := callee.MediaCallWith(caller.Addr()); cmc != nil {
			return cmc
		}
		clk.Sleep(time.Millisecond)
	}
	t.Fatal("callee never opened its half of the call")
	return nil
}

// TestMediaWaitAfterTimeout: a WaitEstablished that timed out does not
// spoil the next one, which returns the rung the ladder lands on.
func TestMediaWaitAfterTimeout(t *testing.T) {
	clk := sim.NewClock()
	clk.RunTask(func() {
		d := plainMediaPair(t, clk, nil)
		defer d.Close()
		cmc := calleeCallDuringSetup(t, clk, d.Nodes[0], d.Nodes[1])
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
	clk := sim.NewClock()
	clk.RunTask(func() {
		d := plainMediaPair(t, clk, nil)
		defer d.Close()
		cmc := calleeCallDuringSetup(t, clk, d.Nodes[0], d.Nodes[1])
		start := clk.Now()
		var woke []time.Duration
		for i := 0; i < 2; i++ {
			clk.Go(func() {
				if k, err := cmc.WaitEstablished(5 * time.Second); err != nil || k != udp.PathDirect {
					t.Errorf("waiter %d = %v/%v, want direct", i, k, err)
				}
				woke = append(woke, clk.Now()-start)
			})
		}
		clk.Sleep(6 * time.Second)
		if len(woke) != 2 || woke[0] != woke[1] || woke[0] >= time.Second {
			t.Errorf("waiters woke after %v, want both at once when the ladder lands", woke)
		}
	})
}

// TestMediaPathAgreesWithFlow: during a re-climb the call reports what
// its flow reports — none until the new rung lands, then that rung —
// because the flow is the one holder of the ladder's state.
func TestMediaPathAgreesWithFlow(t *testing.T) {
	clk := sim.NewClock()
	ch := transport.NewChaos(nil, 5)
	ch.Sched = clk
	clk.RunTask(func() {
		d := plainMediaPair(t, clk, ch.PacketNetwork)
		defer d.Close()
		mc, cmc := d.SetupMedia(t, d.Nodes[0], d.Nodes[1])
		// Sever the direct path: the next round can only land on the relay.
		clk.Sleep(100 * time.Millisecond)
		ch.Blackhole(mc.Flow().LocalAddr())
		ch.Blackhole(cmc.Flow().LocalAddr())
		done := false
		clk.Go(func() {
			if k, err := mc.Reestablish(relayAddr); err != nil {
				t.Errorf("reestablish = %v/%v", k, err)
			}
			done = true
		})
		// The rungs the call reports, each run of equal reads counted once.
		steps := []udp.PathKind{mc.Path()}
		for !done {
			clk.Sleep(10 * time.Millisecond)
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
		if mc.Flow().Relay() != relayAddr || mc.Flow().Reestablishments() != 1 {
			t.Errorf("relay %q, reestablishments %d: want the relay and 1", mc.Flow().Relay(), mc.Flow().Reestablishments())
		}
	})
}

// TestMediaPortsWrap: a node's media ports run from BasePort to 65535,
// then from BasePort again, past the ports its live calls still hold;
// a base port outside the range is refused.
func TestMediaPortsWrap(t *testing.T) {
	clk := sim.NewClock()
	clk.RunTask(func() {
		d, _ := mediaPair(t, clk, DeployHost{}, DeployHost{})
		defer d.Close()
		caller, callee := d.Nodes[0], d.Nodes[1]
		if err := caller.EnableMedia(MediaConfig{Net: d.Mem, ListenHost: string(caller.Addr()), BasePort: 65536, STUN: stunAddr}); err == nil {
			t.Error("EnableMedia took base port 65536")
		}
		for i, n := range []*Node{caller, callee} {
			if err := n.EnableMedia(MediaConfig{
				Net: d.Mem, ListenHost: string(n.Addr()), BasePort: []int{65534, 6000}[i],
				STUN: stunAddr,
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
		want := []transport.Addr{"c:65534", "c:65535", "c:65535", "c:65535"}
		if !slices.Equal(got, want) {
			t.Errorf("media sockets %v, want %v", got, want)
		}
	})
}

// TestNodeCloseEndsMediaCalls: closing a node closes its media calls.
// It holds none afterwards, its flow's address can be bound again, and
// the peer's flow hears no further keepalive beacon from it.
func TestNodeCloseEndsMediaCalls(t *testing.T) {
	clk := sim.NewClock()
	clk.RunTask(func() {
		media := MediaConfig{BasePort: 6000, STUN: stunAddr, KeepaliveInterval: 50 * time.Millisecond}
		d, _ := mediaPair(t, clk, DeployHost{Media: &media}, DeployHost{})
		defer d.Close()
		caller, callee := d.Nodes[0], d.Nodes[1]
		var heard atomic.Int64 // datagrams delivered to the callee's sockets
		media.Net, media.ListenHost = countingNet{d.Mem, &heard}, string(callee.Addr())
		if err := callee.EnableMedia(media); err != nil {
			t.Fatal(err)
		}
		mc, _ := d.SetupMedia(t, caller, callee)
		addr := mc.Flow().LocalAddr()
		if _, err := d.Mem.ListenPacket(addr, func(transport.Addr, []byte) {}); err == nil {
			t.Fatalf("%s bound twice while the call is up", addr)
		}
		before := heard.Load()
		clk.Sleep(time.Second)
		if heard.Load() == before {
			t.Fatal("the callee heard no beacon while the call was up")
		}

		caller.Close()
		caller.mu.Lock()
		held := len(caller.mediaCalls)
		caller.mu.Unlock()
		if held != 0 {
			t.Errorf("a closed node holds %d media calls", held)
		}
		if conn, err := d.Mem.ListenPacket(addr, func(transport.Addr, []byte) {}); err != nil {
			t.Errorf("after Close: %v", err)
		} else {
			_ = conn.Close()
		}
		clk.Sleep(100 * time.Millisecond) // datagrams in flight land
		after := heard.Load()
		clk.Sleep(time.Second)
		if got := heard.Load() - after; got != 0 {
			t.Errorf("the callee heard %d datagrams from a closed caller", got)
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
	clk := sim.NewClock()
	cfg := session.DefaultConfig()
	cfg.Backups = 1
	cfg.ProbeInterval = 100 * time.Millisecond
	cfg.KeepaliveInterval = 250 * time.Millisecond
	payload := make([]byte, 20)
	var allocs float64
	heard, relayed := 0, 0
	clk.RunTask(func() {
		symmetric := nat.Symmetric
		media := &MediaConfig{BasePort: 5000, STUN: stunAddr, Relay: relayAddr, RelayKey: []byte("relay-secret")}
		d, _ := mediaPair(t, clk, DeployHost{NAT: &symmetric, Media: media}, DeployHost{NAT: &symmetric, Media: media})
		defer d.Close()
		caller, callee := d.Nodes[0], d.Nodes[1]
		onVoice := func(udp.Packet, transport.Addr) { heard++ }
		call := func() {
			choice, err := caller.SetupCall(callee.Addr())
			if err != nil {
				t.Fatalf("setup call: %v", err)
			}
			mc, cmc := d.SetupMedia(t, caller, callee)
			if mc.Path() == udp.PathRelayed {
				relayed++
			}
			mgr, err := session.NewManager(cfg, clk, caller, session.WithFlowOpener(caller.EnsureFlow))
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
				clk.Sleep(20 * time.Millisecond)
			}
			mgr.Close()
			clk.Sleep(time.Second)
			_ = mc.Close()
			_ = cmc.Close()
			clk.Sleep(100 * time.Millisecond)
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
