package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"asap/internal/nat"
	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// The headline fault-injection scenario for media-plane resilience
// (DESIGN.md §13): kill the active voice relay mid-call and assert the
// session monitor's failover re-establishes the media path onto the
// backup relay with zero call teardown — same flow, same SSRC,
// continuous RFC 3550 receive stats — byte-identically from run to run.

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
// returns a serialized trace of everything observable. Two runs must
// produce identical bytes.
func relayKillScenario(t *testing.T) string {
	t.Helper()
	var trace strings.Builder
	clk := sim.NewClock()
	secret := []byte("deployment-relay-key")
	clk.RunTask(func() {
		// Symmetric NATs on both sides force the relay rung — the paper's
		// worst case, and the one where relay death kills the call.
		symmetric := nat.Symmetric
		media := &MediaConfig{
			BasePort: 5000, STUN: stunAddr, Relay: "relay1.example:5000", RelayKey: secret,
			KeepaliveInterval: 50 * time.Millisecond, KeepaliveMisses: 200,
		}
		d, _ := mediaPair(t, clk, DeployHost{NAT: &symmetric, Media: media}, DeployHost{NAT: &symmetric, Media: media})
		defer d.Close()
		caller, callee := d.Nodes[0], d.Nodes[1]
		relay := func(addr transport.Addr) *udp.RelayServer {
			r, err := udp.NewRelayServerWith(d.Mem, addr, clk, udp.RelayConfig{FlowTTL: 10 * time.Second, Secret: secret})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		rly1, rly2 := relay("relay1.example:5000"), relay("relay2.example:5000")

		mc, cmc := d.SetupMedia(t, caller, callee)
		if mc.Path() != udp.PathRelayed || mc.Flow().Relay() != rly1.Addr() {
			t.Fatalf("setup path = %v via %s, want relayed via relay1", mc.Path(), mc.Flow().Relay())
		}
		flowBefore, ssrcBefore := mc.Flow(), mc.Flow().SSRC()

		// The session monitor: control-plane relay addresses map onto the
		// relays' media addresses when the media plane follows a switch.
		mediaOf := map[transport.Addr]transport.Addr{
			"ctrl-rly1": rly1.Addr(),
			"ctrl-rly2": rly2.Addr(),
		}
		drv := &scriptedDriver{}
		mgr, err := session.NewManager(session.DefaultConfig(), clk, drv,
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
				clk.Sleep(20 * time.Millisecond)
			}
			clk.Sleep(200 * time.Millisecond)
		}
		stream(20) // healthy call through relay1

		// Kill relay1: media plane (server gone) and control plane
		// (probes and keepalives fail) together.
		_ = rly1.Close()
		drv.kill("ctrl-rly1")
		fmt.Fprintf(&trace, "killed relay1 at %v\n", clk.Now().Round(time.Millisecond))

		// Keepalive misses -> failover -> OnPathChange -> media ladder
		// re-runs against relay2. Give it the misses + backoff + ladder.
		clk.Sleep(15 * time.Second)

		if got := s.Failovers(); got != 1 {
			t.Errorf("failovers = %d, want 1", got)
		}
		if s.State() == session.StateClosed {
			t.Error("call was torn down; resilience means zero teardown")
		}
		if mc.Path() != udp.PathRelayed || mc.Flow().Relay() != rly2.Addr() {
			t.Errorf("post-kill path = %v via %s, want relayed via relay2", mc.Path(), mc.Flow().Relay())
		}
		if mc.Flow() != flowBefore || mc.Flow().SSRC() != ssrcBefore {
			t.Error("flow identity changed across re-establishment")
		}
		if got := mc.Flow().Reestablishments(); got != 1 {
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
			mc.Path(), mc.Flow().Relay(), mc.Flow().Reestablishments(), st.Packets, st.Lost, st.Jitter, s.Failovers())
		for _, r := range mgr.Close() {
			fmt.Fprintf(&trace, "report %v\n", r)
		}
	})
	return trace.String()
}

func TestMediaSurvivesRelayKill(t *testing.T) {
	trace := relayKillScenario(t)
	if !strings.Contains(trace, "failover") {
		t.Errorf("trace records no failover:\n%s", trace)
	}
	if !strings.Contains(trace, "reestablish -> relay2.example:5000: relayed err=<nil>") {
		t.Errorf("trace records no successful re-establishment:\n%s", trace)
	}
}

func TestMediaRelayKillDeterministic(t *testing.T) {
	a := relayKillScenario(t)
	b := relayKillScenario(t)
	if a != b {
		t.Errorf("same scenario, different traces:\n--- run 1:\n%s\n--- run 2:\n%s", a, b)
	}
}

// TestMediaSilenceAutoReestablish covers the second trigger: no session
// monitor involved — the flow's own keepalive silence detection notices
// the media path died (here: both directions blackholed) and the caller
// re-runs the ladder onto its configured relay automatically.
func TestMediaSilenceAutoReestablish(t *testing.T) {
	clk := sim.NewClock()
	ch := transport.NewChaos(nil, 3)
	ch.Sched = clk
	clk.RunTask(func() {
		d, _ := mediaPair(t, clk, DeployHost{}, DeployHost{})
		defer d.Close()
		caller, callee := d.Nodes[0], d.Nodes[1]
		pub := ch.PacketNetwork(d.Mem)
		for _, n := range []*Node{caller, callee} {
			if err := n.EnableMedia(MediaConfig{
				Net: pub, ListenHost: string(n.Addr()), BasePort: 6000,
				STUN: stunAddr, Relay: relayAddr,
				KeepaliveInterval: 50 * time.Millisecond, KeepaliveMisses: 4,
			}); err != nil {
				t.Fatal(err)
			}
		}
		mc, cmc := d.SetupMedia(t, caller, callee)
		if mc.Path() != udp.PathDirect {
			t.Fatalf("setup path = %v, want direct (no NATs)", mc.Path())
		}

		// Sever the direct path in both directions. Keepalive silence
		// must fire on the caller and the ladder must land on the relay.
		ch.Blackhole(mc.Flow().LocalAddr())
		ch.Blackhole(cmc.Flow().LocalAddr())
		clk.Sleep(10 * time.Second)

		if mc.Path() != udp.PathRelayed {
			t.Errorf("path after silence = %v, want relayed", mc.Path())
		}
		if mc.Flow().Reestablishments() < 1 {
			t.Error("no automatic re-establishment after silence")
		}
		// Voice flows again, relayed end to end.
		before := mc.Flow().Stats().Packets
		for i := 0; i < 10; i++ {
			if err := cmc.Flow().SendVoice([]byte("frame")); err != nil {
				t.Fatal(err)
			}
			clk.Sleep(20 * time.Millisecond)
		}
		clk.Sleep(200 * time.Millisecond)
		if got := mc.Flow().Stats().Packets - before; got != 10 {
			t.Errorf("heard %d/10 packets after auto re-establish", got)
		}
	})
}
