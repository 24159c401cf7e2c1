package udp

import (
	"bytes"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// fuzzToken is the flow token the fuzzed relay holds bound; the seeds
// carry it so mutations start on the flow a stranger would attack.
const fuzzToken = 0x5eed

// FuzzVoicePacket feeds arbitrary datagrams to the voice packet parser
// and to a relay, the two places a stranger's bytes land first. On every
// input:
//
//  1. Parse never panics;
//  2. every datagram Parse accepts re-encodes through AppendTo to the
//     input bytes — the header has no slack and the payload is the rest;
//  3. a relay on Mem and a virtual clock, holding one bound flow, neither
//     panics nor forwards anything to either party when a stranger that
//     bound nothing sends it the datagram.
//
// Seeds cover every PacketType on the bound flow's token, a short
// header, and the type bytes just outside the enum (0 and 11).
func FuzzVoicePacket(f *testing.F) {
	for pt := PTVoice; pt <= PTKeepalive; pt++ {
		f.Add((&Packet{Type: pt, Seq: 7, TS: 20 * time.Millisecond, SSRC: fuzzToken, Payload: []byte("frame")}).AppendTo(nil))
	}
	f.Add([]byte{byte(PTVoice), 0, 0, 0, 7})
	f.Add((&Packet{Type: 0, SSRC: fuzzToken}).AppendTo(nil))
	f.Add((&Packet{Type: PTKeepalive + 1, SSRC: fuzzToken}).AppendTo(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := Parse(data); err == nil {
			if enc := p.AppendTo(nil); !bytes.Equal(enc, data) {
				t.Fatalf("accepted datagram re-encodes differently:\n  in %x\n out %x", data, enc)
			}
		}

		clk := sim.NewClock()
		m := transport.NewMem()
		m.Sched = clk
		defer func() { _ = m.Close() }()
		relay, err := NewRelayServerWith(m, "relay:1", clk, RelayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		heard := 0
		party := func(addr transport.Addr) transport.PacketConn {
			c, err := m.ListenPacket(addr, func(transport.Addr, []byte) { heard++ })
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		a, b := party("a:1"), party("b:1")
		bind := (&Packet{Type: PTRelayBind, SSRC: fuzzToken}).AppendTo(nil)
		_ = a.WriteTo(relay.Addr(), bind)
		_ = b.WriteTo(relay.Addr(), bind)
		clk.RunTask(func() { clk.Sleep(time.Millisecond) })
		if heard != 2 {
			t.Fatalf("parties heard %d datagrams binding the flow, want two confirmations", heard)
		}

		heard = 0
		stranger, err := m.ListenPacket("stranger:1", func(transport.Addr, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		_ = stranger.WriteTo(relay.Addr(), data)
		clk.RunTask(func() { clk.Sleep(time.Millisecond) })
		if heard != 0 || relay.Forwarded() != 0 {
			t.Fatalf("a stranger's datagram %x reached the flow's parties: %d datagrams, %d forwarded", data, heard, relay.Forwarded())
		}
	})
}
