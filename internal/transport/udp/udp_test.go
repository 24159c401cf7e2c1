package udp

import (
	"bytes"
	"strconv"
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
	got, err := Parse(p.AppendTo(getBuf()))
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

// newWorld builds a world whose links all take latency one way (none
// when 0) and whose relay runs with rc.
func newWorld(t *testing.T, latency time.Duration, rc RelayConfig) *world {
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
	relay, err := NewRelayServerWith(m, "relay:1", clk, rc)
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

// lossy returns an endpoint with cfg whose datagrams cross a Chaos
// seeded with seed, and that Chaos, to script faults on.
func (w *world) lossy(t *testing.T, seed int64, cfg Config) (*transport.Chaos, *Endpoint) {
	t.Helper()
	chaos := transport.NewChaos(nil, seed)
	chaos.Sched = w.clk
	ep, err := NewEndpoint(chaos.PacketNetwork(w.net), w.clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return chaos, ep
}

func TestDiscover(t *testing.T) {
	w := newWorld(t, 5*time.Millisecond, RelayConfig{})
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
	w := newWorld(t, 5*time.Millisecond, RelayConfig{})
	chaos, ep := w.lossy(t, 7, DefaultConfig())
	chaos.FailNext(w.stun.Addr(), 2)
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
	w := newWorld(t, 5*time.Millisecond, RelayConfig{})
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

// climbPair runs the two-sided ladder between a and b from one instant,
// each toward the other's bound address with relay as the last rung,
// and returns both landings. Call it inside a task of s.
func climbPair(t *testing.T, s sim.Scheduler, a, b *Flow, relay transport.Addr) (ka, kb PathKind) {
	t.Helper()
	var ea, eb error
	s.Join(2,
		func() { ka, ea = a.Establish(b.LocalAddr(), relay, true) },
		func() { kb, eb = b.Establish(a.LocalAddr(), relay, false) })
	if ea != nil || eb != nil {
		t.Errorf("establish: caller %v, callee %v", ea, eb)
	}
	return ka, kb
}

// establishPair runs climbPair to completion on w's clock.
func establishPair(t *testing.T, w *world, a, b *Flow, relay transport.Addr) (ka, kb PathKind) {
	t.Helper()
	w.clk.RunTask(func() { ka, kb = climbPair(t, w.clk, a, b, relay) })
	return ka, kb
}

func TestEstablishDirectNoNAT(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, RelayConfig{})
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
	w := newWorld(t, 10*time.Millisecond, RelayConfig{})
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
	w := newWorld(t, 10*time.Millisecond, RelayConfig{})
	chaos, ep := w.lossy(t, 42, DefaultConfig())
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
	w := newWorld(t, 10*time.Millisecond, RelayConfig{})
	chaos, ep := w.lossy(t, 1, DefaultConfig())
	chaos.Blackhole("alice:5000")
	chaos.Blackhole("bob:5000")
	const token = 1
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
	w := newWorld(t, 10*time.Millisecond, RelayConfig{})
	chaos, ep := w.lossy(t, 1, DefaultConfig())
	chaos.Blackhole("bob:5000")
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
	w := newWorld(t, time.Millisecond, RelayConfig{})
	ep := w.endpoint(t)
	const token = 1
	a, _ := ep.Open("alice:5000", token)
	b, _ := ep.Open("bob:5000", token)
	mallory, _ := ep.Open("mallory:5000", token)
	var heardB, heardM int
	b.SetVoiceHandler(func(Packet, transport.Addr) { heardB++ })
	mallory.SetVoiceHandler(func(Packet, transport.Addr) { heardM++ })
	bind := func(f *Flow) {
		if err := writePacket(f.conn, w.relay.Addr(), Packet{Type: PTRelayBind, Seq: 1, SSRC: token}); err != nil {
			t.Error(err)
		}
	}
	w.clk.RunTask(func() {
		bind(a)
		bind(b)
		w.clk.Sleep(50 * time.Millisecond)
		bind(mallory) // tries to take over the bound flow
		w.clk.Sleep(50 * time.Millisecond)
		// Voice from a must forward to b, never to mallory.
		p := Packet{Type: PTVoice, Seq: 1, TS: w.clk.Now(), SSRC: token, Payload: []byte("x")}
		if err := writePacket(a.conn, w.relay.Addr(), p); err != nil {
			t.Fatal(err)
		}
		w.clk.Sleep(50 * time.Millisecond)
	})
	if heardB != 1 || heardM != 0 {
		t.Errorf("b heard %d, mallory heard %d; want 1/0", heardB, heardM)
	}
}

func TestBufPool(t *testing.T) {
	b := getBuf()
	if len(b) != 0 {
		t.Errorf("pooled buffer not empty: len %d", len(b))
	}
	b = append(b, 1, 2, 3)
	putBuf(b)
	putBuf(make([]byte, 0, 128<<10)) // oversized: dropped, not pooled
	b2 := getBuf()
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

// waiterCounter is a virtual clock that counts the waiters handed out.
type waiterCounter struct {
	*sim.Clock
	waiters int
}

func (c *waiterCounter) NewWaiter() sim.Waiter {
	c.waiters++
	return c.Clock.NewWaiter()
}

// TestFlowLadderWaiterAllocs: a flow owns one waiter. Discover, the
// caller's direct and punch retransmit ladders, the callee's passive
// phase and a second climb on each flow all re-arm it, so two flows
// that climb twice against a silent peer make two waiters however many
// Syns they retransmit.
func TestFlowLadderWaiterAllocs(t *testing.T) {
	w := newWorld(t, 5*time.Millisecond, RelayConfig{})
	clk := &waiterCounter{Clock: w.clk}
	ep, err := NewEndpoint(w.net, clk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	syns := 0
	if _, err := w.net.ListenPacket("silent:1", func(_ transport.Addr, data []byte) {
		if p, err := Parse(data); err == nil && p.Type == PTSyn {
			syns++
		}
	}); err != nil {
		t.Fatal(err)
	}
	caller, err := ep.Open("alice:5000", 1)
	if err != nil {
		t.Fatal(err)
	}
	callee, err := ep.Open("bob:5000", 2)
	if err != nil {
		t.Fatal(err)
	}
	w.clk.RunTask(func() {
		for _, f := range []*Flow{caller, callee} {
			if _, err := f.Discover(w.stun.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		for range 2 {
			if _, err := caller.Establish("silent:1", "", true); err == nil {
				t.Fatal("caller established against a silent peer")
			}
			if _, err := callee.Establish("silent:1", "", false); err == nil {
				t.Fatal("callee established against a silent peer")
			}
		}
	})
	if syns < 20 {
		t.Fatalf("the silent peer saw %d Syns: the ladders barely retransmitted", syns)
	}
	if clk.waiters != 2 {
		t.Errorf("%d waiters for two flows over %d Syns, want 2 (one per flow)", clk.waiters, syns)
	}
}

// TestLearnedAddrAllocs: a STUN answer naming an external address the
// endpoint learned recently reuses that address's string, so a warm
// answer allocates nothing; one answer per address among more than the
// endpoint remembers allocates one copy each.
func TestLearnedAddrAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := newWorld(t, 0, RelayConfig{})
	f, err := w.endpoint(t).Open("alice:5000", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		addrs int
		want  float64
	}{{learnedAddrs, 0}, {learnedAddrs + 1, 1}} {
		var answers [][]byte
		for i := range tc.addrs {
			p := Packet{Type: PTStunResp, Seq: 9, SSRC: 7, Payload: []byte("1.2.3.4:" + strconv.Itoa(40000+i))}
			answers = append(answers, p.AppendTo(nil))
		}
		i := 0
		answer := func() {
			f.mu.Lock()
			f.stunSeq, f.stunOpen = 9, true
			f.mu.Unlock()
			f.dispatch("stun:1", answers[i%len(answers)])
			i++
		}
		for range tc.addrs {
			answer()
		}
		if got := testing.AllocsPerRun(100, answer); got != tc.want {
			t.Errorf("answers cycling %d addresses: %.2f allocs each, want %v", tc.addrs, got, tc.want)
		}
		if want := "1.2.3.4:" + strconv.Itoa(40000+(i-1)%tc.addrs); string(f.External()) != want {
			t.Errorf("external address %s after the last answer, want %s", f.External(), want)
		}
	}
}
