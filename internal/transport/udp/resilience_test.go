package udp

import (
	"strings"
	"sync"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// Tests for the media-plane resilience layer (DESIGN.md §13): relay
// lifecycle hardening (unbind, TTL expiry, quotas, HMAC token auth),
// idempotent flow close, keepalive silence detection, and mid-call
// re-establishment with continuous receive accounting.

// churnConfig keeps ladder budgets tiny so soak tests stay cheap even
// over thousands of virtual calls.
func churnConfig() Config {
	return Config{
		StunTries:     2,
		StunInterval:  10 * time.Millisecond,
		DirectBudget:  20 * time.Millisecond,
		PunchBudget:   40 * time.Millisecond,
		PunchInterval: 10 * time.Millisecond,
		RelayBudget:   400 * time.Millisecond,
	}
}

func TestRelayProofDeterministic(t *testing.T) {
	secret := []byte("relay-secret")
	p1 := RelayProof(secret, 42)
	p2 := RelayProof(secret, 42)
	if string(p1) != string(p2) {
		t.Error("proof not deterministic")
	}
	if len(p1) != relayProofLen {
		t.Errorf("proof length %d, want %d", len(p1), relayProofLen)
	}
	if string(RelayProof(secret, 43)) == string(p1) {
		t.Error("different tokens must yield different proofs")
	}
	if string(RelayProof([]byte("other"), 42)) == string(p1) {
		t.Error("different secrets must yield different proofs")
	}
}

func TestFlowCloseUnbindsRelay(t *testing.T) {
	// Closing a flow must send PTRelayUnbind so the relay reclaims the
	// entry immediately — the leak fix independent of TTL expiry.
	w := newWorld(t, time.Millisecond)
	token := w.relay.Allocate()
	ep := w.endpoint(t)
	chaos := transport.NewChaos(nil, 3)
	chaos.Sched = w.clk
	chaos.Blackhole("alice:5000")
	chaos.Blackhole("bob:5000")
	cep, err := NewEndpoint(chaos.PacketNetwork(w.net), w.clk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = ep
	a, _ := cep.Open("alice:5000", token)
	b, _ := cep.Open("bob:5000", token)
	ka, kb := establishPair(t, w, a, b, w.relay.Addr())
	if ka != PathRelayed || kb != PathRelayed {
		t.Fatalf("paths = %v/%v, want relayed", ka, kb)
	}
	if w.relay.LiveFlows() != 1 {
		t.Fatalf("live flows = %d, want 1", w.relay.LiveFlows())
	}
	w.clk.RunTask(func() {
		if err := a.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := a.Close(); err != nil {
			t.Errorf("second close should be a nil no-op, got %v", err)
		}
		w.clk.Sleep(50 * time.Millisecond) // let the unbind arrive
	})
	if n := w.relay.LiveFlows(); n != 0 {
		t.Errorf("live flows after close = %d, want 0 (unbind lost?)", n)
	}
	_ = b.Close()
}

func TestRelaySoakChurnQuotaAndSpoof(t *testing.T) {
	// The acceptance soak: 1,000 churned relayed calls leave the relay
	// with zero live flows; a greedy source hits the per-source quota;
	// spoofed-token binds bounce off the HMAC check.
	clk := sim.NewClock()
	m := transport.NewMem()
	m.Sched = clk
	t.Cleanup(func() { _ = m.Close() })
	stun, err := NewSTUNServer(m, "stun:1")
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("soak-secret")
	relay, err := NewRelayServerWith(m, "relay:1", clk, RelayConfig{
		FlowTTL:           5 * time.Second,
		MaxFlowsPerSource: 2,
		Secret:            secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = stun

	chaos := transport.NewChaos(nil, 11)
	chaos.Sched = clk
	ep, err := NewEndpoint(chaos.PacketNetwork(m), clk, churnConfig())
	if err != nil {
		t.Fatal(err)
	}

	const calls = 1000
	clk.RunTask(func() {
		for i := 0; i < calls; i++ {
			token := relay.Allocate()
			aAddr := transport.Addr("alice:" + itoa(5000+i))
			bAddr := transport.Addr("bob:" + itoa(5000+i))
			chaos.Blackhole(aAddr) // force every call onto the relay rung
			chaos.Blackhole(bAddr)
			a, err := ep.Open(aAddr, token)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ep.Open(bAddr, token)
			if err != nil {
				t.Fatal(err)
			}
			a.SetRelayAuth(RelayProof(secret, token))
			b.SetRelayAuth(RelayProof(secret, token))
			done := 0
			dw := clk.NewWaiter()
			clk.Go(func() {
				if _, err := a.Establish(bAddr, relay.Addr(), true); err != nil {
					t.Errorf("call %d caller: %v", i, err)
				}
				if done++; done == 2 {
					dw.Wake()
				}
			})
			clk.Go(func() {
				if _, err := b.Establish(aAddr, relay.Addr(), false); err != nil {
					t.Errorf("call %d callee: %v", i, err)
				}
				if done++; done == 2 {
					dw.Wake()
				}
			})
			dw.Wait(-1)
			if err := a.SendVoice([]byte("soak")); err != nil {
				t.Fatalf("call %d voice: %v", i, err)
			}
			_ = a.Close()
			_ = b.Close()
			chaos.Heal(aAddr)
			chaos.Heal(bAddr)
		}
		clk.Sleep(100 * time.Millisecond) // drain trailing unbinds
	})
	if n := relay.LiveFlows(); n != 0 {
		t.Errorf("live flows after %d churned calls = %d, want 0", calls, n)
	}
	if relay.Forwarded() != calls {
		t.Errorf("forwarded = %d, want %d", relay.Forwarded(), calls)
	}

	// Quota: one host binding beyond MaxFlowsPerSource is refused even
	// with valid proofs — key possession does not waive the budget.
	clk.RunTask(func() {
		greedy, err := ep.Open("evil:9000", 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			token := relay.Allocate()
			buf := GetBuf()
			p := Packet{Type: PTRelayBind, Seq: 1, SSRC: token, Payload: RelayProof(secret, token)}
			buf = p.AppendTo(buf)
			if err := greedy.conn.WriteTo(relay.Addr(), buf); err != nil {
				t.Fatal(err)
			}
			PutBuf(buf)
			clk.Sleep(10 * time.Millisecond)
		}
	})
	if got := relay.QuotaRejections(); got != 3 {
		t.Errorf("quota rejections = %d, want 3 (5 binds, quota 2)", got)
	}

	// Spoof: a bind with a forged proof is rejected and creates nothing.
	before := relay.LiveFlows()
	clk.RunTask(func() {
		mallory, err := ep.Open("mallory:6666", 0)
		if err != nil {
			t.Fatal(err)
		}
		const token = 0xDEADBEEF // deliberately never allocated
		buf := GetBuf()
		p := Packet{Type: PTRelayBind, Seq: 1, SSRC: token, Payload: []byte("not-the-proof-you-want")}
		buf = p.AppendTo(buf)
		if err := mallory.conn.WriteTo(relay.Addr(), buf); err != nil {
			t.Fatal(err)
		}
		PutBuf(buf)
		clk.Sleep(10 * time.Millisecond)
	})
	if relay.AuthRejections() == 0 {
		t.Error("spoofed-token bind was not rejected")
	}
	if got := relay.LiveFlows(); got != before {
		t.Errorf("spoofed bind changed live flows: %d -> %d", before, got)
	}
}

func TestRelayAuthRejectAbandonsLadderFast(t *testing.T) {
	// A binder without the proof must get PTRelayReject and abandon the
	// relay rung immediately instead of burning the whole relay budget.
	clk := sim.NewClock()
	m := transport.NewMem()
	m.Sched = clk
	t.Cleanup(func() { _ = m.Close() })
	relay, err := NewRelayServerWith(m, "relay:1", clk, RelayConfig{Secret: []byte("s3cret")})
	if err != nil {
		t.Fatal(err)
	}
	chaos := transport.NewChaos(nil, 5)
	chaos.Sched = clk
	chaos.Blackhole("alice:5000")
	chaos.Blackhole("bob:5000")
	cfg := churnConfig()
	ep, err := NewEndpoint(chaos.PacketNetwork(m), clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ep.Open("alice:5000", 7)
	clk.RunTask(func() {
		start := clk.Now()
		k, err := a.Establish("bob:5000", relay.Addr(), true)
		if err == nil || k != PathNone {
			t.Fatalf("establish = %v/%v, want rejection failure", k, err)
		}
		if !strings.Contains(err.Error(), "rejected") {
			t.Errorf("err = %v, want a relay-rejected error", err)
		}
		elapsed := clk.Now() - start
		full := cfg.DirectBudget + cfg.PunchBudget + cfg.RelayBudget
		if elapsed >= full {
			t.Errorf("ladder took the full %v budget (%v); reject should abort the relay rung early", full, elapsed)
		}
	})
	if relay.AuthRejections() == 0 {
		t.Error("relay recorded no auth rejections")
	}
}

func TestRelayTTLExpiryAndKeepaliveRefresh(t *testing.T) {
	// An idle flow ages out on the scheduler-driven sweep; a flow whose
	// endpoints beacon PTKeepalive stays bound indefinitely.
	clk := sim.NewClock()
	m := transport.NewMem()
	m.Sched = clk
	t.Cleanup(func() { _ = m.Close() })
	relay, err := NewRelayServerWith(m, "relay:1", clk, RelayConfig{
		FlowTTL: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []RelayEvent
	relay.SetEventLog(func(e RelayEvent) { events = append(events, e) })

	chaos := transport.NewChaos(nil, 9)
	chaos.Sched = clk
	for _, a := range []transport.Addr{"idle-a:1", "idle-b:1", "live-a:1", "live-b:1"} {
		chaos.Blackhole(a)
	}
	ep, err := NewEndpoint(chaos.PacketNetwork(m), clk, churnConfig())
	if err != nil {
		t.Fatal(err)
	}
	pair := func(aAddr, bAddr transport.Addr, token uint32) (*Flow, *Flow) {
		a, _ := ep.Open(aAddr, token)
		b, _ := ep.Open(bAddr, token)
		done := 0
		dw := clk.NewWaiter()
		est := func(f *Flow, peer transport.Addr, caller bool) {
			clk.Go(func() {
				if k, err := f.Establish(peer, relay.Addr(), caller); err != nil || k != PathRelayed {
					t.Errorf("establish = %v/%v", k, err)
				}
				if done++; done == 2 {
					dw.Wake()
				}
			})
		}
		clk.RunTask(func() {
			est(a, bAddr, true)
			est(b, aAddr, false)
			dw.Wait(-1)
		})
		return a, b
	}

	idleA, idleB := pair("idle-a:1", "idle-b:1", relay.Allocate())
	liveA, liveB := pair("live-a:1", "live-b:1", relay.Allocate())
	liveA.StartKeepalive(100*time.Millisecond, 3, nil)
	liveB.StartKeepalive(100*time.Millisecond, 3, nil)
	if n := relay.LiveFlows(); n != 2 {
		t.Fatalf("live flows = %d, want 2", n)
	}

	clk.RunTask(func() { clk.Sleep(3 * time.Second) })
	if n := relay.LiveFlows(); n != 1 {
		t.Errorf("live flows after idle TTL = %d, want 1 (idle pair expired, beaconing pair alive)", n)
	}
	if relay.Expired() != 1 {
		t.Errorf("expired = %d, want 1", relay.Expired())
	}
	sawExpire := false
	for _, e := range events {
		if e.Kind == "expire" {
			sawExpire = true
		}
	}
	if !sawExpire {
		t.Error("no expire event emitted")
	}
	_ = idleA.Close()
	_ = idleB.Close()
	_ = liveA.Close()
	_ = liveB.Close()
	clk.RunTask(func() { clk.Sleep(100 * time.Millisecond) })
	if n := relay.LiveFlows(); n != 0 {
		t.Errorf("live flows after close = %d, want 0", n)
	}
}

func TestFlowReestablishContinuity(t *testing.T) {
	// Mid-call re-establishment onto a relay: same flow, same SSRC, same
	// sockets — the receiver's RFC 3550 accounting must span the switch
	// as one continuous stream with no artificial loss.
	w := newWorld(t, 5*time.Millisecond)
	chaos := transport.NewChaos(nil, 21)
	chaos.Sched = w.clk
	token := w.relay.Allocate()
	ep, err := NewEndpoint(chaos.PacketNetwork(w.net), w.clk, churnConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ep.Open("alice:5000", token)
	b, _ := ep.Open("bob:5000", token)
	ka, kb := establishPair(t, w, a, b, w.relay.Addr())
	if ka != PathDirect || kb != PathDirect {
		t.Fatalf("setup paths = %v/%v, want direct", ka, kb)
	}

	stream := func(n int) {
		for i := 0; i < n; i++ {
			if err := a.SendVoice([]byte("frame")); err != nil {
				t.Fatal(err)
			}
			w.clk.Sleep(20 * time.Millisecond)
		}
		w.clk.Sleep(100 * time.Millisecond)
	}
	w.clk.RunTask(func() { stream(10) })

	// The direct path dies; both sides re-run the ladder and land on the
	// relay without tearing the flow down.
	chaos.Blackhole("alice:5000")
	chaos.Blackhole("bob:5000")
	w.clk.RunTask(func() {
		done := 0
		dw := w.clk.NewWaiter()
		w.clk.Go(func() {
			if k, err := a.Reestablish("bob:5000", w.relay.Addr(), true); err != nil || k != PathRelayed {
				t.Errorf("caller reestablish = %v/%v, want relayed", k, err)
			}
			if done++; done == 2 {
				dw.Wake()
			}
		})
		w.clk.Go(func() {
			if k, err := b.Reestablish("alice:5000", w.relay.Addr(), false); err != nil || k != PathRelayed {
				t.Errorf("callee reestablish = %v/%v, want relayed", k, err)
			}
			if done++; done == 2 {
				dw.Wake()
			}
		})
		dw.Wait(-1)
		stream(10)
	})

	st := b.Stats()
	if st.Packets != 20 {
		t.Errorf("packets = %d, want 20 (stats must span the switch)", st.Packets)
	}
	if st.Lost != 0 {
		t.Errorf("lost = %d, want 0 — re-establishment must not fake a sequence gap", st.Lost)
	}
	if a.Reestablishments() != 1 || b.Reestablishments() != 1 {
		t.Errorf("reestablishments = %d/%d, want 1/1", a.Reestablishments(), b.Reestablishments())
	}
	if a.Path() != PathRelayed || a.Peer() != w.relay.Addr() {
		t.Errorf("caller path = %v via %q, want relayed via relay", a.Path(), a.Peer())
	}
}

func TestFlowKeepaliveSilenceEpisodes(t *testing.T) {
	// Silence fires onSilent exactly once per episode; resumed traffic
	// re-arms it.
	w := newWorld(t, time.Millisecond)
	chaos := transport.NewChaos(nil, 13)
	chaos.Sched = w.clk
	ep, err := NewEndpoint(chaos.PacketNetwork(w.net), w.clk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ep.Open("alice:5000", 99)
	b, _ := ep.Open("bob:5000", 99)
	establishPair(t, w, a, b, w.relay.Addr())

	var silent int
	a.StartKeepalive(50*time.Millisecond, 3, func() { silent++ })
	b.StartKeepalive(50*time.Millisecond, 3, nil)

	w.clk.RunTask(func() { w.clk.Sleep(500 * time.Millisecond) })
	if silent != 0 {
		t.Fatalf("silence fired %d times with live keepalives, want 0", silent)
	}

	chaos.Blackhole("alice:5000") // nothing reaches a anymore
	w.clk.RunTask(func() { w.clk.Sleep(time.Second) })
	if silent != 1 {
		t.Errorf("silence fired %d times during one episode, want exactly 1", silent)
	}

	chaos.Heal("alice:5000")
	w.clk.RunTask(func() { w.clk.Sleep(300 * time.Millisecond) }) // traffic resumes, episode re-arms
	chaos.Blackhole("alice:5000")
	w.clk.RunTask(func() { w.clk.Sleep(time.Second) })
	if silent != 2 {
		t.Errorf("silence fired %d times over two episodes, want 2", silent)
	}
}

func TestFlowCloseRace(t *testing.T) {
	// Close must be idempotent and safe against concurrent Establish and
	// keepalive goroutines — run under -race (wall scheduler, real
	// goroutines).
	wall := sim.NewWall()
	m := transport.NewMem()
	m.Sched = wall
	t.Cleanup(func() { _ = m.Close() })
	relay, err := NewRelayServerWith(m, "relay:1", wall, RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		StunTries:     1,
		StunInterval:  5 * time.Millisecond,
		DirectBudget:  10 * time.Millisecond,
		PunchBudget:   10 * time.Millisecond,
		PunchInterval: 2 * time.Millisecond,
		RelayBudget:   10 * time.Millisecond,
	}
	ep, err := NewEndpoint(m, wall, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f, err := ep.Open(transport.Addr("racer:"+itoa(i)), uint32(i+1))
		if err != nil {
			t.Fatal(err)
		}
		f.StartKeepalive(time.Millisecond, 1, func() {})
		var wg sync.WaitGroup
		wg.Add(6)
		go func() {
			defer wg.Done()
			_, _ = f.Establish("nowhere:1", relay.Addr(), true)
		}()
		go func() {
			defer wg.Done()
			_, _ = f.Reestablish("nowhere:2", relay.Addr(), true)
		}()
		go func() {
			defer wg.Done()
			_ = f.SendVoice([]byte("x"))
		}()
		for j := 0; j < 3; j++ {
			go func() {
				defer wg.Done()
				if err := f.Close(); err != nil {
					t.Errorf("concurrent close: %v", err)
				}
			}()
		}
		wg.Wait()
	}
}

// itoa avoids pulling strconv into half the tests above.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
