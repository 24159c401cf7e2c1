// Package udp is ASAP's voice data plane: a datagram transport speaking
// a compact binary packet format over independent per-flow sockets, with
// STUN-style external-address discovery, simultaneous-open hole
// punching, and a relay bind/forward protocol — the direct → punched →
// relayed escalation ladder a call's media path climbs when NATs get in
// the way (DESIGN.md §12).
//
// Everything is written against transport.PacketNetwork, so the same
// code runs over real UDP sockets (Live), the in-memory datagram plane
// (transport.Mem), an emulated NAT (nat.Box) or a fault injector
// (transport.Chaos.PacketNetwork) — and, through the injected
// sim.Scheduler, deterministically under the virtual clock.
package udp

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// PacketType tags one datagram's role on the wire.
type PacketType uint8

// Packet types. Voice is the hot path; the rest are the traversal
// control packets (discovery, punching, relay handshake).
const (
	// PTVoice is a voice frame batch.
	PTVoice PacketType = iota + 1
	// PTStunReq asks a discovery server for the sender's external
	// address as the server observes it.
	PTStunReq
	// PTStunResp carries the observed address in the payload.
	PTStunResp
	// PTSyn opens (or punches) a flow: each side sends Syns until it
	// hears the peer. Seq carries the attempt number for diagnostics.
	PTSyn
	// PTAck answers a Syn; receiving either a Syn or an Ack proves the
	// path is open in the receiving direction.
	PTAck
	// PTRelayBind registers the sender's flow (by SSRC) with a relay.
	// On an authenticated relay the payload carries the HMAC flow-token
	// proof (RelayProof); binds without a valid proof are rejected.
	PTRelayBind
	// PTRelayBound is the relay's confirmation that both parties of the
	// flow are bound and forwarding is live.
	PTRelayBound
	// PTRelayUnbind releases the sender's half of a relay flow (sent by
	// Flow.Close); once either bound party unbinds, the relay drops the
	// whole flow entry.
	PTRelayUnbind
	// PTRelayReject is the relay's refusal of a bind — quota exceeded or
	// bad proof — so the binder can abandon the relay rung instead of
	// burning its whole relay budget on retries.
	PTRelayReject
	// PTKeepalive is the media-plane liveness beacon: both endpoints send
	// it at a fixed cadence once the flow is established, the relay
	// refreshes the flow's expiry clock and forwards it, and a receiver
	// that hears nothing (voice or keepalive) for several intervals
	// declares the media path silent and triggers re-establishment.
	PTKeepalive
)

// String renders the type for logs.
func (t PacketType) String() string {
	switch t {
	case PTVoice:
		return "voice"
	case PTStunReq:
		return "stun-req"
	case PTStunResp:
		return "stun-resp"
	case PTSyn:
		return "syn"
	case PTAck:
		return "ack"
	case PTRelayBind:
		return "relay-bind"
	case PTRelayBound:
		return "relay-bound"
	case PTRelayUnbind:
		return "relay-unbind"
	case PTRelayReject:
		return "relay-reject"
	case PTKeepalive:
		return "keepalive"
	default:
		return fmt.Sprintf("packet-type(%d)", uint8(t))
	}
}

// headerLen is the fixed packet header: type(1) + seq(4) + ts(8) +
// ssrc(4). No length field — the datagram boundary carries the length,
// which is what "length-free" means: zero framing overhead and no
// head-of-line coupling between packets.
const headerLen = 1 + 4 + 8 + 4

// Packet is one decoded datagram.
//
//	byte 0      PacketType
//	bytes 1-4   Seq   (big endian)
//	bytes 5-12  TS    (big endian, nanoseconds — a scheduler offset)
//	bytes 13-16 SSRC  (big endian — the flow identity, RTP-style)
//	bytes 17-   Payload
//
// TS is the sender's scheduler offset (sim.Scheduler.Now) at send time,
// never an absolute wall instant: only the sender's receiver-side
// arithmetic interprets it (interarrival jitter needs timestamp
// *differences*), so the origin never leaves the node and virtual-clock
// runs serialize identically to live ones.
type Packet struct {
	Type    PacketType
	Seq     uint32
	TS      time.Duration
	SSRC    uint32
	Payload []byte
}

// AppendTo appends the packet's wire form to dst and returns the
// extended slice. With a pooled buffer from GetBuf the hot voice path
// encodes with zero heap allocations.
func (p *Packet) AppendTo(dst []byte) []byte {
	var hdr [headerLen]byte
	hdr[0] = byte(p.Type)
	binary.BigEndian.PutUint32(hdr[1:5], p.Seq)
	binary.BigEndian.PutUint64(hdr[5:13], uint64(p.TS))
	binary.BigEndian.PutUint32(hdr[13:17], p.SSRC)
	dst = append(dst, hdr[:]...)
	return append(dst, p.Payload...)
}

// Parse decodes one datagram. The returned Payload aliases data — copy
// it before retaining (packet handlers only borrow their buffers).
func Parse(data []byte) (Packet, error) {
	if len(data) < headerLen {
		return Packet{}, fmt.Errorf("udp: short packet: %d bytes", len(data))
	}
	p := Packet{
		Type: PacketType(data[0]),
		Seq:  binary.BigEndian.Uint32(data[1:5]),
		TS:   time.Duration(binary.BigEndian.Uint64(data[5:13])),
		SSRC: binary.BigEndian.Uint32(data[13:17]),
	}
	if p.Type == 0 || p.Type > PTKeepalive {
		return Packet{}, fmt.Errorf("udp: unknown packet type %d", data[0])
	}
	p.Payload = data[headerLen:]
	return p, nil
}

// bufCap is the capacity of every pooled buffer: room for a typical
// voice packet (37 to 177 bytes on the benchmark) with a wide margin.
const bufCap = 2048

// bufPool recycles encode buffers. Voice streams at 50 packets per
// second per flow; without pooling every packet costs a fresh allocation
// on the send path. The pool holds pointers to fixed-size arrays: a
// pointer fits an interface word, so neither Get nor Put allocates,
// where a pooled *[]byte cost one slice header per PutBuf.
var bufPool = sync.Pool{
	New: func() interface{} { return new([bufCap]byte) },
}

// GetBuf returns an empty pooled buffer with room for a typical voice
// packet. Return it with PutBuf when the datagram has been handed off.
func GetBuf() []byte { return bufPool.Get().(*[bufCap]byte)[:0] }

// PutBuf recycles a buffer obtained from GetBuf; neither call allocates.
// A buffer that append grew past bufCap is a different array and is left
// to the collector, so one jumbo datagram does not pin memory forever.
func PutBuf(b []byte) {
	if cap(b) != bufCap {
		return
	}
	bufPool.Put((*[bufCap]byte)(b[:bufCap]))
}
