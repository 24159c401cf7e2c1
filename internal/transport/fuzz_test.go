package transport

import (
	"bytes"
	"testing"
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
