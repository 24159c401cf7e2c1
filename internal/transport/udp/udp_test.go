package udp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{
		Type:    PTVoice,
		Seq:     0xDEADBEEF,
		TS:      1234567891011 * time.Nanosecond,
		SSRC:    42,
		Payload: []byte("frame frame frame"),
	}
	wire := p.AppendTo(nil)
	if len(wire) != headerLen+len(p.Payload) {
		t.Errorf("wire length %d, want %d", len(wire), headerLen+len(p.Payload))
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.Seq != p.Seq || got.TS != p.TS || got.SSRC != p.SSRC {
		t.Errorf("header did not round trip: %+v vs %+v", got, p)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("payload did not round trip: %q", got.Payload)
	}
}

func TestPacketParseRejects(t *testing.T) {
	if _, err := Parse([]byte{1, 2, 3}); err == nil {
		t.Error("short packet should fail to parse")
	}
	bad := (&Packet{Type: PTKeepalive + 1, Seq: 1}).AppendTo(nil)
	if _, err := Parse(bad); err == nil {
		t.Error("unknown type should fail to parse")
	}
	zero := make([]byte, headerLen)
	if _, err := Parse(zero); err == nil {
		t.Error("type 0 should fail to parse")
	}
}

func TestPacketEmptyPayload(t *testing.T) {
	p := Packet{Type: PTSyn, Seq: 7, SSRC: 9}
	got, err := Parse(p.AppendTo(GetBuf()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Errorf("payload = %v, want empty", got.Payload)
	}
}

// world is one simulated public internet: a Mem datagram plane under a
// virtual clock, with a STUN server and a relay bound on it.
type world struct {
	clk   *sim.Clock
	net   *transport.Mem
	stun  *STUNServer
	relay *RelayServer
}

func newWorld(t *testing.T, latency time.Duration) *world {
	t.Helper()
	clk := sim.NewClock()
	m := transport.NewMem()
	m.Sched = clk
	if latency > 0 {
		m.Latency = func(from, to transport.Addr) time.Duration { return latency }
	}
	stun, err := NewSTUNServer(m, "stun:1")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := NewRelayServerWith(m, "relay:1", clk, RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return &world{clk: clk, net: m, stun: stun, relay: relay}
}

func (w *world) endpoint(t *testing.T) *Endpoint {
	t.Helper()
	ep, err := NewEndpoint(w.net, w.clk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func TestDiscover(t *testing.T) {
	w := newWorld(t, 5*time.Millisecond)
	ep := w.endpoint(t)
	f, err := ep.Open("alice:5000", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.clk.RunTask(func() {
		// No NAT: the observed address is the bound address itself.
		ext, err := f.Discover(w.stun.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if ext != "alice:5000" {
			t.Errorf("discovered %q, want alice:5000", ext)
		}
	})
}

func TestDiscoverSurvivesLoss(t *testing.T) {
	// First two STUN requests are dropped; retries recover.
	w := newWorld(t, 5*time.Millisecond)
	chaos := transport.NewChaos(nil, 7)
	chaos.Sched = w.clk
	chaos.FailNext(w.stun.Addr(), 2)
	pn := chaos.PacketNetwork(w.net)
	ep, err := NewEndpoint(pn, w.clk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := ep.Open("alice:5000", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.clk.RunTask(func() {
		ext, err := f.Discover(w.stun.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if ext != "alice:5000" {
			t.Errorf("discovered %q, want alice:5000", ext)
		}
	})
}

func TestDiscoverTimesOut(t *testing.T) {
	w := newWorld(t, 5*time.Millisecond)
	ep := w.endpoint(t)
	f, err := ep.Open("alice:5000", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.clk.RunTask(func() {
		if _, err := f.Discover("no-such-stun:1"); err == nil {
			t.Error("discovery against a dead server should time out")
		}
	})
}

// establishPair runs the two-sided ladder to completion and returns both
// outcomes.
func establishPair(t *testing.T, w *world, a, b *Flow, relay transport.Addr) (ka, kb PathKind) {
	t.Helper()
	w.clk.RunTask(func() {
		done := 0
		dw := w.clk.NewWaiter()
		w.clk.Go(func() {
			k, err := a.Establish(b.LocalAddr(), relay, true)
			if err != nil {
				t.Errorf("caller establish: %v", err)
			}
			ka = k
			if done++; done == 2 {
				dw.Wake()
			}
		})
		w.clk.Go(func() {
			k, err := b.Establish(a.LocalAddr(), relay, false)
			if err != nil {
				t.Errorf("callee establish: %v", err)
			}
			kb = k
			if done++; done == 2 {
				dw.Wake()
			}
		})
		dw.Wait(-1)
	})
	return ka, kb
}

func TestEstablishDirectNoNAT(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond)
	ep := w.endpoint(t)
	a, err := ep.Open("alice:5000", 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ep.Open("bob:5000", 77)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := establishPair(t, w, a, b, w.relay.Addr())
	if ka != PathDirect || kb != PathDirect {
		t.Errorf("paths = %v/%v, want direct/direct", ka, kb)
	}
	if a.Peer() != "bob:5000" || b.Peer() != "alice:5000" {
		t.Errorf("peers = %q/%q", a.Peer(), b.Peer())
	}
}

func TestVoiceEndToEnd(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond)
	ep := w.endpoint(t)
	a, _ := ep.Open("alice:5000", 77)
	b, _ := ep.Open("bob:5000", 77)
	var heard int
	b.SetVoiceHandler(func(p Packet, from transport.Addr) { heard++ })
	establishPair(t, w, a, b, w.relay.Addr())
	w.clk.RunTask(func() {
		for i := 0; i < 50; i++ {
			if err := a.SendVoice([]byte("voice-frame")); err != nil {
				t.Fatal(err)
			}
			w.clk.Sleep(20 * time.Millisecond) // 50 pps
		}
		w.clk.Sleep(100 * time.Millisecond) // drain in flight
	})
	if heard != 50 {
		t.Errorf("heard %d voice packets, want 50", heard)
	}
	st := b.Stats()
	if st.Packets != 50 || st.Lost != 0 || st.Jitter != 0 {
		t.Errorf("stats = %+v, want 50 packets, no loss, zero jitter on a fixed-latency link", st)
	}
	if a.Sent() != 50 {
		t.Errorf("sent = %d, want 50", a.Sent())
	}
}

func TestVoiceLossAndJitterAccounting(t *testing.T) {
	// Voice over a lossy link: receiver-side accounting must see the
	// loss; sender remains oblivious (datagram contract).
	w := newWorld(t, 10*time.Millisecond)
	chaos := transport.NewChaos(nil, 42)
	chaos.Sched = w.clk
	pn := chaos.PacketNetwork(w.net)
	ep, err := NewEndpoint(pn, w.clk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ep.Open("alice:5000", 77)
	b, _ := ep.Open("bob:5000", 77)
	establishPair(t, w, a, b, w.relay.Addr())
	chaos.DropTo("bob:5000", 0.2) // fault only the voice direction, after setup
	const n = 500
	w.clk.RunTask(func() {
		for i := 0; i < n; i++ {
			if err := a.SendVoice([]byte("voice-frame")); err != nil {
				t.Fatal(err)
			}
			w.clk.Sleep(20 * time.Millisecond)
		}
		w.clk.Sleep(200 * time.Millisecond)
	})
	st := b.Stats()
	// packets + lost == highest seq seen; trailing drops are invisible.
	if total := st.Packets + st.Lost; total > n || total < n-20 {
		t.Errorf("packets(%d) + lost(%d) = %d, want ~%d", st.Packets, st.Lost, total, n)
	}
	if st.Lost == 0 {
		t.Error("expected loss on a 20% drop link")
	}
	loss := st.Loss()
	if loss < 0.1 || loss > 0.3 {
		t.Errorf("loss fraction %.3f, want ~0.2", loss)
	}
}

func TestRxAccountingReorderAndJitter(t *testing.T) {
	// Drive the accounting directly: out-of-order and duplicate
	// sequences, and varying transit times producing RFC 3550 jitter.
	var r rxState
	base := 100 * time.Millisecond
	// Packets sent 20ms apart; arrival delayed by alternating extra.
	arr := func(seq uint32, sent, extra time.Duration) {
		r.account(Packet{Type: PTVoice, Seq: seq, TS: sent}, base+sent+extra)
	}
	arr(1, 0, 0)
	arr(2, 20*time.Millisecond, 8*time.Millisecond)
	arr(4, 60*time.Millisecond, 0) // 3 skipped: 1 lost (for now)
	if r.lost != 1 {
		t.Errorf("lost = %d, want 1 after the gap", r.lost)
	}
	arr(3, 40*time.Millisecond, 30*time.Millisecond) // 3 arrives late
	if r.lost != 0 {
		t.Errorf("lost = %d, want 0 after the late arrival", r.lost)
	}
	if r.reordered != 1 {
		t.Errorf("reordered = %d, want 1", r.reordered)
	}
	arr(3, 40*time.Millisecond, 40*time.Millisecond) // duplicate
	if r.duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", r.duplicates)
	}
	if r.packets != 4 {
		t.Errorf("packets = %d, want 4 (dup not counted)", r.packets)
	}
	if r.jitter == 0 {
		t.Error("jitter should be nonzero for varying transit")
	}
	// RFC 3550: J after |D| sequence 8ms, 8ms, 30ms with J += (|D|-J)/16.
	var want time.Duration
	for _, d := range []time.Duration{8 * time.Millisecond, 8 * time.Millisecond, 30 * time.Millisecond} {
		want += (d - want) / 16
	}
	if r.jitter != want {
		t.Errorf("jitter = %v, want %v", r.jitter, want)
	}
}

func TestRelayFallback(t *testing.T) {
	// Peers whose Syns never reach each other (blackholed both ways)
	// must land on the relay, and voice must flow through it.
	w := newWorld(t, 10*time.Millisecond)
	chaos := transport.NewChaos(nil, 1)
	chaos.Sched = w.clk
	chaos.Blackhole("alice:5000")
	chaos.Blackhole("bob:5000")
	pn := chaos.PacketNetwork(w.net)
	ep, err := NewEndpoint(pn, w.clk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	token := w.relay.Allocate()
	a, _ := ep.Open("alice:5000", token)
	b, _ := ep.Open("bob:5000", token)
	var heard int
	b.SetVoiceHandler(func(Packet, transport.Addr) { heard++ })
	ka, kb := establishPair(t, w, a, b, w.relay.Addr())
	if ka != PathRelayed || kb != PathRelayed {
		t.Fatalf("paths = %v/%v, want relayed/relayed", ka, kb)
	}
	if a.Peer() != w.relay.Addr() {
		t.Errorf("voice destination %q, want the relay", a.Peer())
	}
	w.clk.RunTask(func() {
		for i := 0; i < 20; i++ {
			if err := a.SendVoice([]byte("via-relay")); err != nil {
				t.Fatal(err)
			}
			w.clk.Sleep(20 * time.Millisecond)
		}
		w.clk.Sleep(200 * time.Millisecond)
	})
	if heard != 20 {
		t.Errorf("heard %d relayed packets, want 20", heard)
	}
	if w.relay.Forwarded() != 20 {
		t.Errorf("relay forwarded %d, want 20", w.relay.Forwarded())
	}
	if st := b.Stats(); st.Lost != 0 || st.Packets != 20 {
		t.Errorf("relayed stats = %+v", st)
	}
}

func TestEstablishFailsWithNothing(t *testing.T) {
	// No reachable peer and no relay: the ladder must run out and fail.
	w := newWorld(t, 10*time.Millisecond)
	chaos := transport.NewChaos(nil, 1)
	chaos.Sched = w.clk
	chaos.Blackhole("bob:5000")
	pn := chaos.PacketNetwork(w.net)
	ep, err := NewEndpoint(pn, w.clk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ep.Open("alice:5000", 1)
	w.clk.RunTask(func() {
		k, err := a.Establish("bob:5000", "", true)
		if err == nil || k != PathNone {
			t.Errorf("establish = %v/%v, want failure", k, err)
		}
		if !strings.Contains(err.Error(), "no path") {
			t.Errorf("err = %v", err)
		}
	})
}

func TestRelayImpostorIgnored(t *testing.T) {
	// A third party binding an already-paired flow must not hijack it:
	// forwarding keeps going to the original pair.
	w := newWorld(t, time.Millisecond)
	ep := w.endpoint(t)
	token := w.relay.Allocate()
	a, _ := ep.Open("alice:5000", token)
	b, _ := ep.Open("bob:5000", token)
	mallory, _ := ep.Open("mallory:5000", token)
	var heardB, heardM int
	b.SetVoiceHandler(func(Packet, transport.Addr) { heardB++ })
	mallory.SetVoiceHandler(func(Packet, transport.Addr) { heardM++ })
	bind := func(f *Flow) {
		buf := GetBuf()
		p := Packet{Type: PTRelayBind, Seq: 1, SSRC: token}
		buf = p.AppendTo(buf)
		if err := f.conn.WriteTo(w.relay.Addr(), buf); err != nil {
			t.Error(err)
		}
		PutBuf(buf)
	}
	w.clk.RunTask(func() {
		bind(a)
		bind(b)
		w.clk.Sleep(50 * time.Millisecond)
		bind(mallory) // tries to take over the bound flow
		w.clk.Sleep(50 * time.Millisecond)
		// Voice from a must forward to b, never to mallory.
		buf := GetBuf()
		p := Packet{Type: PTVoice, Seq: 1, TS: w.clk.Now(), SSRC: token, Payload: []byte("x")}
		buf = p.AppendTo(buf)
		if err := a.conn.WriteTo(w.relay.Addr(), buf); err != nil {
			t.Fatal(err)
		}
		PutBuf(buf)
		w.clk.Sleep(50 * time.Millisecond)
	})
	if heardB != 1 || heardM != 0 {
		t.Errorf("b heard %d, mallory heard %d; want 1/0", heardB, heardM)
	}
}

func TestBufPool(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Errorf("pooled buffer not empty: len %d", len(b))
	}
	b = append(b, 1, 2, 3)
	PutBuf(b)
	PutBuf(make([]byte, 0, 128<<10)) // oversized: dropped, not pooled
	b2 := GetBuf()
	if len(b2) != 0 {
		t.Errorf("recycled buffer not reset: len %d", len(b2))
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := good
	bad.StunTries = 0
	if err := bad.Validate(); err == nil {
		t.Error("StunTries=0 should be invalid")
	}
	if _, err := NewEndpoint(nil, nil, good); err == nil {
		t.Error("nil network should be rejected")
	}
}
