package udp

import (
	"net"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// loopbackAvailable probes whether the runner allows real UDP loopback
// traffic: sandboxed CI runners commonly permit binds but drop the
// datagrams, so the probe round-trips one packet with a deadline.
func loopbackAvailable(t *testing.T) bool {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return false
	}
	defer func() { _ = pc.Close() }()
	if _, err := pc.WriteTo([]byte("probe"), pc.LocalAddr()); err != nil {
		return false
	}
	_ = pc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	_, _, err = pc.ReadFrom(buf)
	return err == nil
}

// TestLiveLoopback is the real-socket smoke test: discovery, direct
// establishment and voice over kernel UDP on 127.0.0.1, using the wall
// scheduler. Skips on runners without working UDP loopback.
func TestLiveLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping real-socket test")
	}
	if !loopbackAvailable(t) {
		t.Skip("UDP loopback unavailable on this runner")
	}
	lnet := NewLive()
	defer func() { _ = lnet.Close() }()

	stun, err := NewSTUNServer(lnet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stun.Close() }()
	relay, err := NewRelayServerWith(lnet, "127.0.0.1:0", sim.OrWall(nil), RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = relay.Close() }()

	cfg := DefaultConfig()
	ep, err := NewEndpoint(lnet, sim.OrWall(nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ep.Open("127.0.0.1:0", 99)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := ep.Open("127.0.0.1:0", 99)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	// Discovery against the local STUN server sees the loopback address.
	extA, err := a.Discover(stun.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if extA != a.LocalAddr() {
		t.Errorf("discovered %q, want %q (no NAT on loopback)", extA, a.LocalAddr())
	}

	heard := make(chan Packet, 64)
	b.SetVoiceHandler(func(p Packet, from transport.Addr) {
		cp := p
		cp.Payload = append([]byte(nil), p.Payload...)
		select {
		case heard <- cp:
		default:
		}
	})

	// Two-sided establishment over real sockets: run both ladders on
	// goroutines (wall scheduler tasks are plain goroutines).
	type result struct {
		kind PathKind
		err  error
	}
	results := make(chan result, 2)
	go func() {
		k, err := a.Establish(b.LocalAddr(), relay.Addr(), true)
		results <- result{k, err}
	}()
	go func() {
		k, err := b.Establish(a.LocalAddr(), relay.Addr(), false)
		results <- result{k, err}
	}()
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("establish over loopback: %v", r.err)
		}
		if r.kind != PathDirect {
			t.Errorf("path = %v, want direct on loopback", r.kind)
		}
	}

	// Voice a → b.
	const n = 20
	for i := 0; i < n; i++ {
		if err := a.SendVoice([]byte("live-frame")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.After(5 * time.Second)
	for got := 0; got < n; {
		select {
		case p := <-heard:
			if string(p.Payload) != "live-frame" {
				t.Fatalf("payload %q", p.Payload)
			}
			got++
		case <-deadline:
			t.Fatalf("timed out: %d/%d voice packets over loopback", got, n)
		}
	}
	if st := b.Stats(); st.Packets < n {
		t.Errorf("rx stats %+v, want >= %d packets", st, n)
	}
}
