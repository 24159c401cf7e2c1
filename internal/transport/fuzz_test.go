package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"asap/internal/sim"
)

// FuzzMessageCodec feeds arbitrary bytes to the binary decoder and
// checks three properties on every frame the decoder accepts:
//
//  1. re-encoding the decoded message produces a frame the decoder
//     accepts again (the codec is closed over its own output);
//  2. that second frame is byte-identical to the first re-encoding —
//     the canonical form is stable, so frames can be compared and
//     cached by bytes;
//  3. the gob reference agrees: pushing the decoded message through a
//     gob round trip and re-encoding yields the same canonical bytes,
//     so neither codec drops or distorts a field the other preserves.
//
// Frames the decoder rejects must only be rejected — never panic, hang
// or over-allocate (the count caps in readCount are what this exercises).
// Seeds cover every Msg* type via sampleMessages.
func FuzzMessageCodec(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(AppendMessage(nil, m))
	}
	// A few hand-corrupted seeds steer the fuzzer at the error paths.
	f.Add([]byte{})
	f.Add([]byte{CodecVersion})
	f.Add([]byte{99, 1})
	f.Add([]byte{CodecVersion, 1, 200})
	// Version-1 and version-2 frames, well-formed otherwise; the two type
	// bytes just outside the enum; a duplicated and a truncated field
	// section.
	f.Add([]byte{1, 22, fldFrom, 1, 'a', fldDst, 1, 'b'})
	f.Add([]byte{2, 20, fldFrom, 1, 'a'})
	// A whole version-2 quality report (RTT 80 ms, loss 0.02, session 9):
	// its field ids 16-18 are LeaseTTL, Degraded and MediaAddr at
	// version 3, so only the version byte keeps it from being misread.
	f.Add([]byte{2, 20, fldFrom, 1, 'b',
		fldLeaseTTL, 0x80, 0xd0, 0xa5, 0x4c,
		fldDegraded, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x94, 0x3f,
		fldMediaAddr, 9})
	f.Add([]byte{CodecVersion, 0, fldFrom, 1, 'a'})
	f.Add([]byte{CodecVersion, byte(msgTypeLimit), fldFrom, 1, 'a'})
	f.Add([]byte{CodecVersion, byte(MsgPing), fldFrom, 1, 'a', fldFrom, 1, 'a'})
	f.Add([]byte{CodecVersion, byte(MsgPing), fldFrom, 9, 'a'})
	// The media offer that opens a call: epoch 0 is a skipped zero field.
	f.Add(AppendMessage(nil, &Message{Type: MsgMediaSetup, From: "a", MediaAddr: "203.0.113.1:5000", MediaToken: 0xdeadbeef}))
	f.Add([]byte{CodecVersion, byte(MsgGetSurrogates), fldASNs, 0xFF, 0xFF, 0x7F})
	// The two questions version 4 folded away, in their new shape: an
	// unkeyed close-set request (call setup) and its degraded answer, a
	// ping naming a relay flow (keepalive), and a version-3 call setup,
	// whose type byte names MsgRelayOpen at version 4.
	f.Add(AppendMessage(nil, &Message{Type: MsgGetCloseSet, From: "caller"}))
	f.Add(AppendMessage(nil, &Message{Type: MsgGetCloseSetReply, Degraded: true}))
	f.Add(AppendMessage(nil, &Message{Type: MsgPing, From: "a", FlowID: 42}))
	f.Add([]byte{3, 12, fldFrom, 6, 'c', 'a', 'l', 'l', 'e', 'r'})
	// Version 5's budget: a close-set ping carrying its 300 ms, and the
	// same ping as a version-4 frame, which knows no field id 24.
	budgeted := AppendMessage(nil, &Message{Type: MsgPing, From: "s1", SentAt: time.Second, Timeout: 300 * time.Millisecond})
	f.Add(budgeted)
	f.Add(append([]byte{4}, budgeted[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := AcquireMessage()
		defer ReleaseMessage(m)
		if err := DecodeMessage(data, m); err != nil {
			return // rejected cleanly: fine
		}
		enc := AppendMessage(nil, m)
		m2 := AcquireMessage()
		defer ReleaseMessage(m2)
		if err := DecodeMessage(enc, m2); err != nil {
			t.Fatalf("decoder rejected its own encoder's output: %v\nframe: %x", err, enc)
		}
		if enc2 := AppendMessage(nil, m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form unstable:\n first %x\nsecond %x", enc, enc2)
		}
		gb, err := gobEncodeMessage(m)
		if err != nil {
			t.Fatalf("gob reference encode: %v", err)
		}
		viaGob, err := gobDecodeMessage(gb)
		if err != nil {
			t.Fatalf("gob reference decode: %v", err)
		}
		if encGob := AppendMessage(nil, viaGob); !bytes.Equal(enc, encGob) {
			t.Fatalf("gob reference disagrees with binary codec:\n bin %x\n gob %x", enc, encGob)
		}
	})
}

// FuzzReadFrame feeds one arbitrary byte stream to the TCP frame reader
// and reads frames from it until an error, the way a kept connection
// does. Every frame it accepts, re-encoded by writeFrame, must read
// back as the same message; nothing may panic. The seeds are two valid
// frames back to back, a short header, a maxFrame header with a short
// body, and a maxFrame+1 header.
func FuzzReadFrame(f *testing.F) {
	var two bytes.Buffer
	for _, m := range sampleMessages()[:2] {
		if err := writeFrame(&two, m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(two.Bytes())
	f.Add([]byte{0, 0, 1})
	f.Add(append(binary.BigEndian.AppendUint32(nil, maxFrame), CodecVersion, byte(MsgPing)))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			m, err := readFrame(r)
			if err != nil {
				return
			}
			enc := AppendMessage(nil, m)
			var frame bytes.Buffer
			if err := writeFrame(&frame, m); err != nil {
				t.Fatalf("writeFrame of a decoded frame: %v", err)
			}
			ReleaseMessage(m)
			m2, err := readFrame(&frame)
			if err != nil {
				t.Fatalf("readFrame rejected writeFrame's output: %v\nmessage: %x", err, enc)
			}
			if enc2 := AppendMessage(nil, m2); !bytes.Equal(enc, enc2) {
				t.Fatalf("frame round trip changed the message:\n first %x\nsecond %x", enc, enc2)
			}
			ReleaseMessage(m2)
		}
	})
}

// FuzzChaosApply feeds arbitrary -chaos specs to Chaos.Apply. A spec it
// accepts must leave every drop probability in [0,1), every added
// latency at least 0, every outage window ending no earlier than when
// it was applied, and no fault table entry keyed by the empty address.
func FuzzChaosApply(f *testing.F) {
	for _, seed := range []string{
		"drop=0.05,lat=20ms,blackhole@127.0.0.1:7001,outage@127.0.0.1:7000=5s",
		"drop@a=0.5, lat@a=2ms, fail@a=3", " , drop=0.1, ",
		"drop=NaN", "drop=-0", "drop@=0.5", "blackhole@", "lat=-1ms",
		"outage@a=2562047h47m16.854775807s", "fail@a=9223372036854775807",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c := NewChaos(NewMem(), 1) // wall time, so an outage starts past 0
		applied := sim.OrWall(nil).Now()
		if err := c.Apply(spec); err != nil {
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		probs := []float64{c.dropAll}
		for a, p := range c.drop {
			probs = append(probs, p)
			if a == "" {
				t.Errorf("Apply(%q) keyed a drop on the empty address", spec)
			}
		}
		for _, p := range probs {
			if !(p >= 0 && p < 1) {
				t.Errorf("Apply(%q) left drop probability %v", spec, p)
			}
		}
		durs := []time.Duration{c.latAll}
		for a, d := range c.lat {
			durs = append(durs, d)
			if a == "" {
				t.Errorf("Apply(%q) keyed a latency on the empty address", spec)
			}
		}
		for _, d := range durs {
			if d < 0 {
				t.Errorf("Apply(%q) left added latency %v", spec, d)
			}
		}
		for a, end := range c.outage {
			if end < applied {
				t.Errorf("Apply(%q) left an outage ending at %v, before it was applied at %v", spec, end, applied)
			}
			if a == "" {
				t.Errorf("Apply(%q) keyed an outage on the empty address", spec)
			}
		}
		if c.black[""] {
			t.Errorf("Apply(%q) blackholed the empty address", spec)
		}
		if _, ok := c.failNext[""]; ok {
			t.Errorf("Apply(%q) set a fail budget on the empty address", spec)
		}
	})
}
