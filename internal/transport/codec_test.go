package transport

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestMessageCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		enc := AppendMessage(nil, m)
		var got Message
		if err := DecodeMessage(enc, &got); err != nil {
			t.Fatalf("type %d: decode: %v", m.Type, err)
		}
		if want := canonMessage(m); !reflect.DeepEqual(canonMessage(&got), want) {
			t.Errorf("type %d: round trip mismatch\n got %+v\nwant %+v", m.Type, canonMessage(&got), want)
		}
	}
}

// TestMessageCodecMatchesGob is the differential check against the gob
// reference: a message surviving a gob round trip and one surviving a
// binary round trip must be the same message.
func TestMessageCodecMatchesGob(t *testing.T) {
	for _, m := range sampleMessages() {
		gb, err := gobEncodeMessage(m)
		if err != nil {
			t.Fatalf("type %d: gob encode: %v", m.Type, err)
		}
		viaGob, err := gobDecodeMessage(gb)
		if err != nil {
			t.Fatalf("type %d: gob decode: %v", m.Type, err)
		}
		var viaBin Message
		if err := DecodeMessage(AppendMessage(nil, m), &viaBin); err != nil {
			t.Fatalf("type %d: binary decode: %v", m.Type, err)
		}
		if a, b := canonMessage(viaGob), canonMessage(&viaBin); !reflect.DeepEqual(a, b) {
			t.Errorf("type %d: codecs disagree\n gob %+v\n bin %+v", m.Type, a, b)
		}
	}
}

// TestMessageCodecCoversAllTypes keeps the fixture list (and therefore
// the fuzz corpus) honest: every declared wire type must appear.
func TestMessageCodecCoversAllTypes(t *testing.T) {
	covered := make(map[MsgType]bool)
	for _, m := range sampleMessages() {
		covered[m.Type] = true
	}
	for mt := MsgError; mt < msgTypeLimit; mt++ {
		if !covered[mt] {
			t.Errorf("no sample message for MsgType %d — add one to sampleMessages", mt)
		}
	}
}

func TestDecodeMessageRejectsCorruptFrames(t *testing.T) {
	valid := AppendMessage(nil, &Message{Type: MsgPing, From: "a", SentAt: time.Second})
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"version only", []byte{CodecVersion}, "truncated"},
		{"bad version", []byte{99, byte(MsgPing)}, "unsupported codec version"},
		// Version 2 renumbered the enum, so a frame an old build could still
		// send is refused at byte 0 rather than dispatched as another type.
		{"version 1 frame", []byte{1, 22, fldFrom, 1, 'a'}, "unsupported codec version"},
		// Version 3 dropped the quality report (type 20 at version 2), so
		// type 20 now names MsgSurrogateHeartbeat: an old report must stop
		// at byte 0 too.
		{"version 2 frame", []byte{2, 20, fldFrom, 1, 'a'}, "unsupported codec version"},
		// Version 4 folded call setup into the close-set request and the
		// keepalive into the ping, so type 12 (MsgCallSetup at version 3)
		// now names MsgRelayOpen: an old call setup stops at byte 0 too.
		{"version 3 frame", []byte{3, 12, fldFrom, 1, 'a'}, "unsupported codec version"},
		{"type zero", []byte{CodecVersion, 0, fldFrom, 1, 'a'}, "unknown message type"},
		{"type at the sentinel", []byte{CodecVersion, byte(msgTypeLimit), fldFrom, 1, 'a'}, "unknown message type"},
		{"unknown field", []byte{CodecVersion, byte(MsgPing), 200}, "unknown field id"},
		{"zero field id", []byte{CodecVersion, byte(MsgPing), 0}, "unknown field id"},
		{"truncated value", valid[:len(valid)-1], "truncated"},
		{"duplicate field", append(append([]byte{}, valid...), valid[2:]...), "duplicate field"},
		// fldASNs with a count far beyond the remaining bytes.
		{"oversized count", []byte{CodecVersion, byte(MsgGetSurrogates), fldASNs, 0xFF, 0xFF, 0xFF, 0x7F}, "exceeds frame"},
	}
	for _, tc := range cases {
		var m Message
		err := DecodeMessage(tc.data, &m)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt frame", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// --- allocation-regression gate (wired into make check via allocgate) ---

// TestEncodeAllocs asserts the steady-state encode path allocates
// nothing: with a warm reusable buffer, AppendMessage is pure appends.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	msgs := sampleMessages()
	buf := make([]byte, 0, 64<<10)
	for _, m := range msgs {
		buf = AppendMessage(buf[:0], m) // warm the buffer past every size
	}
	n := testing.AllocsPerRun(200, func() {
		for _, m := range msgs {
			buf = AppendMessage(buf[:0], m)
		}
	})
	if n != 0 {
		t.Fatalf("AppendMessage allocates %.1f times per message sweep, want 0", n)
	}
}

// TestDecodeAllocs asserts the steady-state decode path for scalar
// control messages (ping, keepalive — the overwhelming majority of wire
// traffic — and a float-carrying nodal publish) allocates nothing once
// the identity strings are interned. Slice-carrying messages (close
// sets, voice frames) legitimately allocate their payloads and are gated
// separately below.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	frames := [][]byte{
		AppendMessage(nil, &Message{Type: MsgPing, From: "node-17", SentAt: 123 * time.Millisecond}),
		AppendMessage(nil, &Message{Type: MsgPing, From: "node-17", FlowID: 42}),
		AppendMessage(nil, &Message{Type: MsgPublishNodalInfo, From: "node-18", Nodal: NodalInfo{BandwidthKbps: 512, OnlineFor: time.Hour, CPUScore: 0.75}}),
	}
	var m Message
	for _, f := range frames { // warm the intern table
		m = Message{}
		if err := DecodeMessage(f, &m); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(200, func() {
		for _, f := range frames {
			m = Message{}
			if err := DecodeMessage(f, &m); err != nil {
				panic(err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("DecodeMessage allocates %.1f times per control-message sweep, want 0", n)
	}
}

// TestDecodeAllocsVoice bounds the voice path: a reused Message keeps
// its Frames capacity across decodes, so the payload copy itself must
// not allocate either once warm.
func TestDecodeAllocsVoice(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	frame := AppendMessage(nil, &Message{Type: MsgVoice, From: "a", Via: "r", Dst: "b", FlowID: 1, Seq: 9, Frames: make([]byte, 1024)})
	var m Message
	if err := DecodeMessage(frame, &m); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		keep := m.Frames // keep the grown payload buffer across runs
		m = Message{Frames: keep[:0]}
		if err := DecodeMessage(frame, &m); err != nil {
			panic(err)
		}
	})
	if n != 0 {
		t.Fatalf("voice DecodeMessage allocates %.1f times per run with a warm buffer, want 0", n)
	}
}
