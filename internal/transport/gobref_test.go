package transport

import (
	"bytes"
	"encoding/gob"
	"time"
)

// Test-only gob reference codec. The wire format moved to the binary
// codec in codec.go; gob survives here as the differential reference
// for FuzzMessageCodec and the round-trip tests. Living in a _test.go
// file keeps it out of the shipped binary entirely — stronger than the
// build tag the migration plan called for, with the same effect: the
// reference is compiled for every `go test` run and never deployed.

func gobEncodeMessage(m *Message) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecodeMessage(data []byte) (*Message, error) {
	var m Message
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// canonMessage normalizes the representations the two codecs are
// allowed to disagree on — nil versus zero-length slices — so message
// equality means wire equality.
func canonMessage(m *Message) Message {
	c := *m
	if len(c.ASNs) == 0 {
		c.ASNs = nil
	}
	if len(c.CloseSet) == 0 {
		c.CloseSet = nil
	}
	if len(c.Frames) == 0 {
		c.Frames = nil
	}
	if len(c.ProbeDsts) == 0 {
		c.ProbeDsts = nil
	}
	if len(c.ProbeRTTs) == 0 {
		c.ProbeRTTs = nil
	}
	return c
}

// sampleMessages returns one representative message per wire type —
// the fuzz corpus seeds and the round-trip test fixtures. Every field
// of Message appears in at least one sample.
func sampleMessages() []*Message {
	return []*Message{
		{Type: MsgError, From: "a", Error: "handler exploded"},
		{Type: MsgJoin, From: "h1", IP: "10.0.0.1"},
		{Type: MsgJoinReply, ASN: 64512, ClusterKey: "10.0.0.0/24", SurrogateAddr: "s1"},
		{Type: MsgGetSurrogates, From: "s1", ASNs: []uint32{64512, 64513, 1}},
		{Type: MsgGetSurrogatesReply, CloseSet: []CloseEntry{
			{ClusterKey: "10.1.0.0/24", SurrogateAddr: "s2"},
			{ClusterKey: "10.2.0.0/24", SurrogateAddr: "s3"},
		}},
		{Type: MsgGetCloseSet, From: "h1", ClusterKey: "10.0.0.0/24"},
		{Type: MsgGetCloseSetReply, CloseSet: []CloseEntry{
			{ClusterKey: "10.1.0.0/24", SurrogateAddr: "s2", RTT: 12 * time.Millisecond},
		}},
		{Type: MsgPublishNodalInfo, From: "h1", Nodal: NodalInfo{BandwidthKbps: 512, OnlineFor: time.Hour, CPUScore: 0.75}},
		{Type: MsgPublishNodalInfoReply},
		{Type: MsgPing, From: "a", SentAt: 123456789 * time.Nanosecond},
		{Type: MsgPong, From: "b", SentAt: 123456789 * time.Nanosecond},
		{Type: MsgRelayOpen, From: "a", Dst: "b", FlowID: 42},
		{Type: MsgRelayOpenReply, FlowID: 42},
		{Type: MsgVoice, From: "a", Via: "r", Dst: "b", FlowID: 42, Seq: 7, Frames: []byte{1, 2, 3, 4, 5}},
		{Type: MsgVoiceAck, Seq: 7},
		{Type: MsgSurrogateHeartbeat, From: "s1", ClusterKey: "10.0.0.0/24", SurrogateAddr: "s1"},
		{Type: MsgSurrogateHeartbeatReply, SurrogateAddr: "s1", LeaseTTL: 30 * time.Second},
		{Type: MsgMediaSetup, From: "a", MediaAddr: "203.0.113.1:5002", MediaToken: 0xdeadbeef, MediaRelay: "relay:7000", MediaEpoch: 3},
		{Type: MsgMediaSetupReply, MediaAddr: "198.51.100.2:6000"},
		{Type: MsgProbeBatch, From: "a", ProbeDsts: []Addr{"", "callee", "other"}},
		{Type: MsgProbeBatchReply, ProbeRTTs: []time.Duration{3 * time.Millisecond, -1, 40 * time.Millisecond}},
		// Kitchen sink: every field set at once, including negative
		// durations, to stress field ordering and the svarint paths.
		{
			Type: MsgVoice, From: "from", Via: "via", Error: "e", IP: "ip",
			ASN: 4200000000, ClusterKey: "ck", SurrogateAddr: "sa",
			ASNs:     []uint32{0, 1, 1 << 31},
			CloseSet: []CloseEntry{{ClusterKey: "c", SurrogateAddr: "s", RTT: -time.Second}},
			Nodal:    NodalInfo{BandwidthKbps: -1.5, OnlineFor: -time.Minute, CPUScore: 1e300},
			SentAt:   -time.Hour, Dst: "dst", FlowID: 1<<64 - 1, Seq: 1<<32 - 1,
			Frames: []byte{0}, LeaseTTL: time.Duration(1<<63 - 1), Degraded: true,
			MediaAddr: "ma", MediaToken: 1<<32 - 1, MediaRelay: "mr", MediaEpoch: 2,
			ProbeDsts: []Addr{"x"}, ProbeRTTs: []time.Duration{0},
			Timeout: -time.Millisecond,
		},
	}
}
