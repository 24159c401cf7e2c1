package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"asap/internal/nat"
	"asap/internal/session"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// The headline fault-injection scenario for media-plane resilience
// (DESIGN.md §13): kill the active voice relay mid-call and assert the
// session monitor's failover re-establishes the media path onto the
// backup relay with zero call teardown — same flow, same SSRC,
// continuous RFC 3550 receive stats — byte-identically per seed.

// scriptedDriver is a session.Driver whose relays die on command: the
// control-plane view of the outage, decoupled from the media plane so
// the test controls both clocks of the failure.
type scriptedDriver struct {
	mu   sync.Mutex
	dead map[transport.Addr]bool
}

func (d *scriptedDriver) kill(relay transport.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead == nil {
		d.dead = make(map[transport.Addr]bool)
	}
	d.dead[relay] = true
}

func (d *scriptedDriver) ProbePath(relay, callee transport.Addr) (time.Duration, float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead[relay] {
		return 0, 0, fmt.Errorf("relay %s down", relay)
	}
	return 30 * time.Millisecond, 0, nil
}

func (d *scriptedDriver) Keepalive(target transport.Addr, _ uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead[target] {
		return fmt.Errorf("relay %s down", target)
	}
	return nil
}

// relayKillScenario runs the whole mid-call relay-kill story once and
// returns a serialized trace of everything observable. Two runs with the
// same seed must produce identical bytes.
func relayKillScenario(t *testing.T, seed int64) string {
	t.Helper()
	var trace strings.Builder
	w := newMediaWorld(t)

	secret := []byte("deployment-relay-key")
	rly1, err := udp.NewRelayServerWith(w.pub, "relay1.example:5000", w.clk, udp.RelayConfig{
		FlowTTL: 10 * time.Second, Secret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	rly2, err := udp.NewRelayServerWith(w.pub, "relay2.example:5000", w.clk, udp.RelayConfig{
		FlowTTL: 10 * time.Second, Secret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Symmetric NATs on both sides force the relay rung — the paper's
	// worst case, and the one where relay death kills the call.
	boxA := nat.New(nat.Symmetric, w.pub, "203.0.113.1", 40000)
	boxB := nat.New(nat.Symmetric, w.pub, "198.51.100.1", 41000)
	defer func() { _ = boxA.Close(); _ = boxB.Close() }()

	w.clk.RunTask(func() {
		var berr error
		if w.stun, berr = udp.NewSTUNServer(w.pub, "stun.example:3478"); berr != nil {
			t.Fatal(berr)
		}
		if w.bs, berr = NewBootstrap(w.ctrl, "bs", actorBootstrapConfig()); berr != nil {
			t.Fatal(berr)
		}
		caller := w.node(t, "c", "10.100.0.1", seed)
		callee := w.node(t, "d", "10.200.0.1", seed+1)
		defer caller.Close()
		defer callee.Close()
		for n, box := range map[*Node]*nat.Box{caller: boxA, callee: boxB} {
			host := "10.0.0.2"
			if n == callee {
				host = "192.168.1.2"
			}
			if err := n.EnableMedia(MediaConfig{
				Net: box, ListenHost: host, BasePort: 5000,
				STUN: w.stun.Addr(), Relay: rly1.Addr(), RelayKey: secret,
				KeepaliveInterval: 50 * time.Millisecond, KeepaliveMisses: 200,
			}); err != nil {
				t.Fatal(err)
			}
		}

		mc, err := caller.SetupMedia(callee.Addr())
		if err != nil {
			t.Fatalf("setup media: %v", err)
		}
		if mc.Path() != udp.PathRelayed || mc.Relay() != rly1.Addr() {
			t.Fatalf("setup path = %v via %s, want relayed via relay1", mc.Path(), mc.Relay())
		}
		cmc := callee.MediaCallWith(caller.Addr())
		if cmc == nil {
			t.Fatal("callee holds no media call")
		}
		if _, err := cmc.WaitEstablished(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		flowBefore, ssrcBefore := mc.Flow(), mc.Flow().SSRC()

		// The session monitor: control-plane relay addresses map onto the
		// relays' media addresses when the media plane follows a switch.
		mediaOf := map[transport.Addr]transport.Addr{
			"ctrl-rly1": rly1.Addr(),
			"ctrl-rly2": rly2.Addr(),
		}
		drv := &scriptedDriver{}
		mgr, err := session.NewManager(session.DefaultConfig(), w.clk, drv,
			session.WithEventLog(func(e session.Event) {
				fmt.Fprintf(&trace, "session %v\n", e)
			}))
		if err != nil {
			t.Fatal(err)
		}
		s, err := mgr.Open(callee.Addr(),
			session.Candidate{Relay: "ctrl-rly1", Est: 30 * time.Millisecond},
			[]session.Candidate{{Relay: "ctrl-rly2", Est: 35 * time.Millisecond}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.AttachMedia(mc.MediaSource())
		s.OnPathChange(func(newRelay transport.Addr) {
			media, ok := mediaOf[newRelay]
			if !ok {
				return
			}
			k, err := mc.Reestablish(media)
			fmt.Fprintf(&trace, "reestablish -> %s: %v err=%v\n", media, k, err)
		})
		mgr.Start()

		stream := func(n int) {
			for i := 0; i < n; i++ {
				if err := cmc.Flow().SendVoice([]byte("frame")); err != nil {
					t.Fatalf("send voice: %v", err)
				}
				w.clk.Sleep(20 * time.Millisecond)
			}
			w.clk.Sleep(200 * time.Millisecond)
		}
		stream(20) // healthy call through relay1

		// Kill relay1: media plane (server gone) and control plane
		// (probes and keepalives fail) together.
		_ = rly1.Close()
		drv.kill("ctrl-rly1")
		fmt.Fprintf(&trace, "killed relay1 at %v\n", w.clk.Now().Round(time.Millisecond))

		// Keepalive misses -> failover -> OnPathChange -> media ladder
		// re-runs against relay2. Give it the misses + backoff + ladder.
		w.clk.Sleep(15 * time.Second)

		if got := s.Failovers(); got != 1 {
			t.Errorf("failovers = %d, want 1", got)
		}
		if s.State() == session.StateClosed {
			t.Error("call was torn down; resilience means zero teardown")
		}
		if mc.Path() != udp.PathRelayed || mc.Relay() != rly2.Addr() {
			t.Errorf("post-kill path = %v via %s, want relayed via relay2", mc.Path(), mc.Relay())
		}
		if mc.Flow() != flowBefore || mc.Flow().SSRC() != ssrcBefore {
			t.Error("flow identity changed across re-establishment")
		}
		if got := mc.Reestablishments(); got != 1 {
			t.Errorf("reestablishments = %d, want 1", got)
		}
		if k, err := cmc.WaitEstablished(5 * time.Second); err != nil || k != udp.PathRelayed {
			t.Errorf("callee post-kill = %v/%v, want relayed", k, err)
		}

		stream(20) // the same call, now through relay2

		st := mc.Flow().Stats()
		if st.Packets != 40 {
			t.Errorf("packets = %d, want 40 — receive stats must span the switch", st.Packets)
		}
		if st.Lost != 0 {
			t.Errorf("lost = %d, want 0 — no artificial gap from the switch", st.Lost)
		}
		if fwd := rly2.Forwarded(); fwd < 20 {
			t.Errorf("relay2 forwarded %d packets, want >= 20", fwd)
		}
		fmt.Fprintf(&trace, "final: path=%v relay=%s reest=%d packets=%d lost=%d jitter=%v failovers=%d\n",
			mc.Path(), mc.Relay(), mc.Reestablishments(), st.Packets, st.Lost, st.Jitter, s.Failovers())
		for _, r := range mgr.Close() {
			fmt.Fprintf(&trace, "report %v\n", r)
		}
	})
	return trace.String()
}

func TestMediaSurvivesRelayKill(t *testing.T) {
	trace := relayKillScenario(t, 1)
	if !strings.Contains(trace, "failover") {
		t.Errorf("trace records no failover:\n%s", trace)
	}
	if !strings.Contains(trace, "reestablish -> relay2.example:5000: relayed err=<nil>") {
		t.Errorf("trace records no successful re-establishment:\n%s", trace)
	}
}

func TestMediaRelayKillDeterministic(t *testing.T) {
	a := relayKillScenario(t, 7)
	b := relayKillScenario(t, 7)
	if a != b {
		t.Errorf("same seed, different traces:\n--- run 1:\n%s\n--- run 2:\n%s", a, b)
	}
}

// TestMediaSilenceAutoReestablish covers the second trigger: no session
// monitor involved — the flow's own keepalive silence detection notices
// the media path died (here: both directions blackholed) and the caller
// re-runs the ladder onto its configured relay automatically.
func TestMediaSilenceAutoReestablish(t *testing.T) {
	w := newMediaWorld(t)
	ch := transport.NewChaos(nil, 3)
	ch.Sched = w.clk
	pub := ch.PacketNetwork(w.pub)
	w.clk.RunTask(func() {
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
		caller := w.node(t, "c", "10.100.0.1", 1)
		callee := w.node(t, "d", "10.200.0.1", 2)
		defer caller.Close()
		defer callee.Close()
		for i, n := range []*Node{caller, callee} {
			if err := n.EnableMedia(MediaConfig{
				Net: pub, ListenHost: fmt.Sprintf("10.0.%d.2", i), BasePort: 6000,
				STUN: w.stun.Addr(), Relay: w.rly.Addr(),
				KeepaliveInterval: 50 * time.Millisecond, KeepaliveMisses: 4,
			}); err != nil {
				t.Fatal(err)
			}
		}
		mc, err := caller.SetupMedia(callee.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if mc.Path() != udp.PathDirect {
			t.Fatalf("setup path = %v, want direct (no NATs)", mc.Path())
		}
		cmc := callee.MediaCallWith(caller.Addr())
		if _, err := cmc.WaitEstablished(5 * time.Second); err != nil {
			t.Fatal(err)
		}

		// Sever the direct path in both directions. Keepalive silence
		// must fire on the caller and the ladder must land on the relay.
		ch.Blackhole(mc.Flow().LocalAddr())
		ch.Blackhole(cmc.Flow().LocalAddr())
		w.clk.Sleep(10 * time.Second)

		if mc.Path() != udp.PathRelayed {
			t.Errorf("path after silence = %v, want relayed", mc.Path())
		}
		if mc.Reestablishments() < 1 {
			t.Error("no automatic re-establishment after silence")
		}
		// Voice flows again, relayed end to end.
		before := mc.Flow().Stats().Packets
		for i := 0; i < 10; i++ {
			if err := cmc.Flow().SendVoice([]byte("frame")); err != nil {
				t.Fatal(err)
			}
			w.clk.Sleep(20 * time.Millisecond)
		}
		w.clk.Sleep(200 * time.Millisecond)
		if got := mc.Flow().Stats().Packets - before; got != 10 {
			t.Errorf("heard %d/10 packets after auto re-establish", got)
		}
	})
}
