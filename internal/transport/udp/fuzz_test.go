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

// FuzzSTUN feeds arbitrary datagrams to both ends of discovery. On every
// input:
//
//  1. the STUN server never panics and answers only a datagram that
//     parses as a PTStunReq, with one PTStunResp that echoes its Seq and
//     SSRC and carries the sender's observed address as payload;
//  2. a flow waiting in Discover never panics, and its External()
//     changes only on a PTStunResp that carries the flow's SSRC and the
//     open request's Seq.
//
// Seeds cover a request, the answer the waiting flow expects, that
// answer with another Seq or SSRC, a voice packet and a short header.
func FuzzSTUN(f *testing.F) {
	const ssrc = 0x57a9
	for _, p := range []Packet{
		{Type: PTStunReq, Seq: 1, SSRC: ssrc},
		{Type: PTStunResp, Seq: 1, SSRC: ssrc, Payload: []byte("203.0.113.7:40000")},
		{Type: PTStunResp, Seq: 2, SSRC: ssrc, Payload: []byte("203.0.113.7:40000")},
		{Type: PTStunResp, Seq: 1, SSRC: ssrc + 1, Payload: []byte("203.0.113.7:40000")},
		{Type: PTVoice, Seq: 1, SSRC: ssrc, Payload: []byte("frame")},
	} {
		f.Add(p.AppendTo(nil))
	}
	f.Add([]byte{byte(PTStunReq), 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > transport.MaxDatagram {
			return // the network refuses it before anyone reads it
		}
		w := newWorld(t, time.Millisecond, RelayConfig{})
		p, perr := Parse(data)
		listen := func(addr transport.Addr, h transport.PacketHandler) transport.PacketConn {
			c, err := w.net.ListenPacket(addr, h)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}

		var answers [][]byte
		prober := listen("prober:1", func(_ transport.Addr, b []byte) { answers = append(answers, bytes.Clone(b)) })
		_ = prober.WriteTo(w.stun.Addr(), data)
		w.clk.RunTask(func() { w.clk.Sleep(10 * time.Millisecond) })
		if perr != nil || p.Type != PTStunReq {
			if len(answers) != 0 {
				t.Fatalf("server answered %x, which is no STUN request, with %d datagrams", data, len(answers))
			}
		} else if len(answers) != 1 {
			t.Fatalf("request %+v: %d answers, want one", p, len(answers))
		} else if a, err := Parse(answers[0]); err != nil || a.Type != PTStunResp || a.Seq != p.Seq || a.SSRC != p.SSRC || string(a.Payload) != "prober:1" {
			t.Fatalf("request %+v: answer %x, want a PTStunResp echoing Seq and SSRC with payload prober:1", p, answers[0])
		}

		// A stranger's datagram reaches a flow whose first request (Seq 1)
		// to a server that never answers is open.
		fl, err := w.endpoint(t).Open("alice:5000", ssrc)
		if err != nil {
			t.Fatal(err)
		}
		stranger := listen("stranger:1", func(transport.Addr, []byte) {})
		want, match := transport.Addr(""), perr == nil && p.Type == PTStunResp && p.SSRC == ssrc && p.Seq == 1
		if match {
			want = transport.Addr(p.Payload)
		}
		var ext, during transport.Addr
		var derr error
		w.clk.RunTask(func() {
			w.clk.Join(2,
				func() { ext, derr = fl.Discover("silent:1") },
				func() {
					w.clk.Sleep(time.Millisecond)
					_ = stranger.WriteTo("alice:5000", data)
					w.clk.Sleep(2 * time.Millisecond)
					during = fl.External()
				})
		})
		if during != want || fl.External() != want {
			t.Fatalf("datagram %x: External %q while waiting, %q after, want %q", data, during, fl.External(), want)
		}
		if match != (derr == nil) || ext != want {
			t.Fatalf("datagram %x: Discover = %q, %v; want %q and success %v", data, ext, derr, want, match)
		}
	})
}
