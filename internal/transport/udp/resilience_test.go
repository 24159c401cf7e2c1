package udp

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
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

// TestRelayProofMatchesHMAC: the stack-array HMAC is byte-equal to
// crypto/hmac's for keys below, at and above the 64-byte SHA-256 block
// (a longer key is hashed first) and for several SSRCs.
func TestRelayProofMatchesHMAC(t *testing.T) {
	for n := 0; n <= 130; n++ {
		secret := make([]byte, n)
		for i := range secret {
			secret[i] = byte(i*7 + n)
		}
		for _, ssrc := range []uint32{0, 1, 42, 0x9e3779b9, 0xffffffff} {
			mac := hmac.New(sha256.New, secret)
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], ssrc)
			mac.Write(b[:])
			want := mac.Sum(nil)
			if got := relayMAC(secret, ssrc); !bytes.Equal(got[:], want) {
				t.Fatalf("key %d bytes, ssrc %#x: relayMAC %x, crypto/hmac %x", n, ssrc, got, want)
			}
			if got := RelayProof(secret, ssrc); !bytes.Equal(got, want[:relayProofLen]) {
				t.Fatalf("key %d bytes, ssrc %#x: RelayProof %x, want %x", n, ssrc, got, want[:relayProofLen])
			}
		}
	}
}

// TestRelayProofAllocs: the relay verifies a bind's proof without
// allocating, minting one allocates only the returned slice, and a flow
// takes a proof, or derives its own from the secret, into storage it
// already has.
func TestRelayProofAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	secret := []byte("relay-secret")
	r := &RelayServer{cfg: RelayConfig{Secret: secret}}
	good := Packet{Type: PTRelayBind, SSRC: 42, Payload: RelayProof(secret, 42)}
	bad := Packet{Type: PTRelayBind, SSRC: 43, Payload: good.Payload}
	okGood, okBad := true, false
	verify := testing.AllocsPerRun(1000, func() {
		okGood = okGood && r.proofOK(good)
		okBad = okBad || r.proofOK(bad)
	})
	if !okGood || okBad {
		t.Fatalf("proofOK: valid proof accepted %v, wrong-token proof accepted %v", okGood, okBad)
	}
	if verify != 0 {
		t.Errorf("relay-side verify: %.2f allocs, want 0", verify)
	}
	if mint := testing.AllocsPerRun(1000, func() { _ = RelayProof(secret, 42) }); mint != 1 {
		t.Errorf("RelayProof: %.2f allocs, want 1 (the returned proof)", mint)
	}
	f := &Flow{ssrc: 42}
	if n := testing.AllocsPerRun(1000, func() { f.SetRelayAuth(good.Payload) }); n != 0 {
		t.Errorf("SetRelayAuth: %.2f allocs, want 0", n)
	}
	f.relayProof = nil
	if n := testing.AllocsPerRun(1000, func() { f.SetRelayKey(secret) }); n != 0 {
		t.Errorf("SetRelayKey: %.2f allocs, want 0", n)
	}
	if !bytes.Equal(f.relayProof, good.Payload) {
		t.Errorf("SetRelayKey derived %x, want RelayProof's %x", f.relayProof, good.Payload)
	}
}

func TestFlowCloseUnbindsRelay(t *testing.T) {
	// Closing a flow must send PTRelayUnbind so the relay reclaims the
	// entry immediately — the leak fix independent of TTL expiry.
	w := newWorld(t, time.Millisecond)
	const token = 1
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
			token := uint32(i + 1)
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
			token := uint32(calls + 1 + j)
			p := Packet{Type: PTRelayBind, Seq: 1, SSRC: token, Payload: RelayProof(secret, token)}
			if err := writePacket(greedy.conn, relay.Addr(), p); err != nil {
				t.Fatal(err)
			}
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
		const token = 0xDEADBEEF // deliberately never bound
		p := Packet{Type: PTRelayBind, Seq: 1, SSRC: token, Payload: []byte("not-the-proof-you-want")}
		if err := writePacket(mallory.conn, relay.Addr(), p); err != nil {
			t.Fatal(err)
		}
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

func TestRelayFlowCap(t *testing.T) {
	// An open relay (no secret, no per-source quota, no TTL) must still
	// bound its table: one stranger binding fresh tokens fills it to
	// maxRelayFlows, the next new token is refused as a quota rejection,
	// and a second party pairing an existing token still binds.
	clk := sim.NewClock()
	m := transport.NewMem()
	m.Sched = clk
	t.Cleanup(func() { _ = m.Close() })
	relay, err := NewRelayServerWith(m, "relay:1", clk, RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	quotaEvents := 0
	relay.SetEventLog(func(e RelayEvent) {
		if e.Kind == "quota-reject" {
			quotaEvents++
		}
	})
	var rejects, bounds []uint32
	listen := func(addr transport.Addr) transport.PacketConn {
		c, err := m.ListenPacket(addr, func(_ transport.Addr, data []byte) {
			p, err := Parse(data)
			switch {
			case err != nil:
			case p.Type == PTRelayReject:
				rejects = append(rejects, p.SSRC)
			case p.Type == PTRelayBound:
				bounds = append(bounds, p.SSRC)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	flood, peer := listen("stranger:7000"), listen("peer:7001")
	bind := func(c transport.PacketConn, token uint32) {
		if err := writePacket(c, relay.Addr(), Packet{Type: PTRelayBind, Seq: 1, SSRC: token}); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunTask(func() {
		for token := uint32(1); token <= maxRelayFlows+1; token++ {
			bind(flood, token)
			if token%4096 == 0 {
				clk.Sleep(time.Millisecond)
			}
		}
		clk.Sleep(10 * time.Millisecond)
		bind(peer, 1) // pairs an existing flow: no new entry
		clk.Sleep(10 * time.Millisecond)
	})
	if got := relay.LiveFlows(); got != maxRelayFlows {
		t.Errorf("live flows = %d, want the cap %d", got, maxRelayFlows)
	}
	if got := relay.QuotaRejections(); got != 1 || quotaEvents != 1 {
		t.Errorf("quota rejections = %d (%d events), want 1", got, quotaEvents)
	}
	if len(rejects) != 1 || rejects[0] != maxRelayFlows+1 {
		t.Errorf("rejected tokens %v, want only %d", rejects, maxRelayFlows+1)
	}
	if len(bounds) != 2 || bounds[0] != 1 || bounds[1] != 1 {
		t.Errorf("bound confirmations %v, want token 1 to both parties", bounds)
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

	idleA, idleB := pair("idle-a:1", "idle-b:1", 1)
	liveA, liveB := pair("live-a:1", "live-b:1", 2)
	liveA.StartKeepalive(100*time.Millisecond, 3, nil)
	liveB.StartKeepalive(100*time.Millisecond, 3, nil)
	if n := relay.LiveFlows(); n != 2 {
		t.Fatalf("live flows = %d, want 2", n)
	}

	clk.RunTask(func() { clk.Sleep(3 * time.Second) })
	if n := relay.LiveFlows(); n != 1 {
		t.Errorf("live flows after idle TTL = %d, want 1 (idle pair expired, beaconing pair alive)", n)
	}
	expired := 0
	for _, e := range events {
		if e.Kind == "expire" {
			expired++
		}
	}
	if expired != 1 {
		t.Errorf("%d expire events, want 1", expired)
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
	const token = 1
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
			if k, err := a.Establish("bob:5000", w.relay.Addr(), true); err != nil || k != PathRelayed {
				t.Errorf("caller reestablish = %v/%v, want relayed", k, err)
			}
			if done++; done == 2 {
				dw.Wake()
			}
		})
		w.clk.Go(func() {
			if k, err := b.Establish("alice:5000", w.relay.Addr(), false); err != nil || k != PathRelayed {
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

// TestFlowEstablishOneEntry: Establish is the flow's one way into the
// ladder, and the flow's own state picks the case.
func TestFlowEstablishOneEntry(t *testing.T) {
	t.Run("early Syn returns at once", func(t *testing.T) {
		w := newWorld(t, 5*time.Millisecond)
		ep := w.endpoint(t)
		a, _ := ep.Open("alice:5000", 3)
		b, _ := ep.Open("bob:5000", 3)
		w.clk.RunTask(func() {
			// The caller's Syn lands before the callee's ladder begins.
			if err := writePacket(a.conn, b.LocalAddr(), Packet{Type: PTSyn, Seq: 1, SSRC: 3}); err != nil {
				t.Fatal(err)
			}
			w.clk.Sleep(20 * time.Millisecond)
			start := w.clk.Now()
			k, err := b.Establish(a.LocalAddr(), w.relay.Addr(), false)
			if err != nil || k != PathDirect {
				t.Errorf("establish = %v/%v, want direct at once", k, err)
			}
			if w.clk.Now() != start {
				t.Errorf("establish took %v of virtual time, want none (no run)", w.clk.Now()-start)
			}
		})
		if b.Reestablishments() != 0 || b.Relay() != "" {
			t.Errorf("reestablishments %d, relay %q: want 0 and none (no run)", b.Reestablishments(), b.Relay())
		}
	})

	t.Run("second call re-climbs in place", func(t *testing.T) {
		w := newWorld(t, 5*time.Millisecond)
		relay2, err := NewRelayServerWith(w.net, "relay:2", w.clk, RelayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var events []RelayEvent
		w.relay.SetEventLog(func(e RelayEvent) { events = append(events, e) })
		chaos := transport.NewChaos(nil, 4)
		chaos.Sched = w.clk
		chaos.Blackhole("alice:5000") // the peers only ever meet on a relay
		chaos.Blackhole("bob:5000")
		ep, err := NewEndpoint(chaos.PacketNetwork(w.net), w.clk, churnConfig())
		if err != nil {
			t.Fatal(err)
		}
		a, _ := ep.Open("alice:5000", 5)
		b, _ := ep.Open("bob:5000", 5)
		var seqs []uint32
		b.SetVoiceHandler(func(p Packet, _ transport.Addr) {
			if p.SSRC != 5 {
				t.Errorf("voice SSRC %d, want 5", p.SSRC)
			}
			seqs = append(seqs, p.Seq)
		})
		stream := func() {
			w.clk.RunTask(func() {
				for i := 0; i < 10; i++ {
					if err := a.SendVoice([]byte("frame")); err != nil {
						t.Fatal(err)
					}
					w.clk.Sleep(20 * time.Millisecond)
				}
				w.clk.Sleep(100 * time.Millisecond)
			})
		}
		if ka, kb := establishPair(t, w, a, b, w.relay.Addr()); ka != PathRelayed || kb != PathRelayed {
			t.Fatalf("setup paths = %v/%v, want relayed", ka, kb)
		}
		stream()
		if ka, kb := establishPair(t, w, a, b, relay2.Addr()); ka != PathRelayed || kb != PathRelayed {
			t.Fatalf("re-climb paths = %v/%v, want relayed", ka, kb)
		}
		stream()

		if a.Peer() != relay2.Addr() || a.Relay() != relay2.Addr() {
			t.Errorf("voice goes to %q (relay %q), want relay:2", a.Peer(), a.Relay())
		}
		if a.Reestablishments() != 1 || b.Reestablishments() != 1 {
			t.Errorf("reestablishments = %d/%d, want 1/1", a.Reestablishments(), b.Reestablishments())
		}
		for i, seq := range seqs {
			if seq != uint32(i+1) {
				t.Fatalf("voice seqs %v: the send sequence must continue across the re-climb", seqs)
			}
		}
		if st := b.Stats(); st.Packets != 20 || st.Lost != 0 {
			t.Errorf("stats = %+v, want 20 packets and no loss across the switch", st)
		}
		unbinds := 0
		for _, e := range events {
			if e.Kind == "unbind" {
				unbinds++
			}
		}
		if unbinds != 1 || w.relay.LiveFlows() != 0 {
			t.Errorf("old relay saw %d unbinds and holds %d flows, want 1 and 0", unbinds, w.relay.LiveFlows())
		}
	})

	t.Run("concurrent call is refused", func(t *testing.T) {
		w := newWorld(t, 5*time.Millisecond)
		ep := w.endpoint(t)
		a, _ := ep.Open("alice:5000", 6)
		w.clk.RunTask(func() {
			w.clk.Go(func() { _, _ = a.Establish("nowhere:1", "", true) })
			w.clk.Sleep(time.Millisecond)
			k, err := a.Establish("nowhere:1", "", true)
			if err == nil || k != PathNone || !strings.Contains(err.Error(), "already in progress") {
				t.Errorf("concurrent establish = %v/%v, want refused", k, err)
			}
			if k, err := a.Wait(-1); err == nil || k != PathNone || !strings.Contains(err.Error(), "no path") {
				t.Errorf("wait = %v/%v, want the first run's failure", k, err)
			}
		})
	})

	t.Run("path reads none for the whole re-climb", func(t *testing.T) {
		w := newWorld(t, 5*time.Millisecond)
		chaos := transport.NewChaos(nil, 8)
		chaos.Sched = w.clk
		ep, err := NewEndpoint(chaos.PacketNetwork(w.net), w.clk, churnConfig())
		if err != nil {
			t.Fatal(err)
		}
		a, _ := ep.Open("alice:5000", 9)
		b, _ := ep.Open("bob:5000", 9)
		if ka, _ := establishPair(t, w, a, b, w.relay.Addr()); ka != PathDirect {
			t.Fatalf("setup path = %v, want direct", ka)
		}
		w.clk.RunTask(func() { w.clk.Sleep(50 * time.Millisecond) }) // let late Syns land
		chaos.Blackhole("alice:5000")
		chaos.Blackhole("bob:5000")
		var reads []PathKind
		w.clk.RunTask(func() {
			done := false
			w.clk.Go(func() { _, _ = b.Establish(a.LocalAddr(), w.relay.Addr(), false) })
			w.clk.Go(func() {
				_, _ = a.Establish(b.LocalAddr(), w.relay.Addr(), true)
				done = true
			})
			for !done {
				w.clk.Sleep(5 * time.Millisecond)
				reads = append(reads, a.Path())
			}
		})
		landed := 0
		for landed < len(reads) && reads[landed] == PathNone {
			landed++
		}
		if landed < 10 || landed == len(reads) {
			t.Fatalf("path reads %v: want none until the relay rung lands", reads)
		}
		for _, k := range reads[landed:] {
			if k != PathRelayed {
				t.Fatalf("path reads %v: want relayed once landed", reads)
			}
		}
	})
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
			_, _ = f.Establish("nowhere:2", relay.Addr(), true)
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
