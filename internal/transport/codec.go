package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Binary wire codec for Message (DESIGN.md §15). The format is a
// versioned tagged union, tuned for the envelope's access pattern: most
// messages set three or four of the 24 fields, so zero fields cost
// nothing on the wire and the encoder touches only what is set.
//
// Layout:
//
//	[0]  version byte (CodecVersion)
//	[1]  message type (MsgType as a byte)
//	[2:] field sections, each `field-id byte` + value, in field-id order
//
// Value encodings by kind:
//
//	strings/addresses/bytes   uvarint length + raw bytes
//	unsigned ints             uvarint
//	durations                 zigzag svarint of nanoseconds
//	floats                    8-byte little-endian IEEE 754 bits
//	bools                     presence only (the field id is the value)
//	slices                    uvarint count + elements
//
// Zero-valued fields are skipped entirely; decoding into a zeroed
// Message therefore round-trips exactly. Unknown field ids and version
// bytes are decode errors: the protocol has a single deployed version
// at a time, and failing loudly beats silently dropping fields. The
// version moves whenever the MsgType or field numbering does (2:
// renumbered compactly; 3: the quality report and its three fields
// left; 4: call setup folded into the close-set request and the
// keepalive into the ping; 5: the caller's budget, Timeout), so an old
// frame is rejected at byte 0, not misdispatched.
const CodecVersion = 5

// Field ids. Append only within a version — reusing an id changes the
// meaning of old frames. The order is also the canonical encode order.
const (
	fldFrom = iota + 1
	fldVia
	fldError
	fldIP
	fldASN
	fldClusterKey
	fldSurrogateAddr
	fldASNs
	fldCloseSet
	fldNodal
	fldSentAt
	fldDst
	fldFlowID
	fldSeq
	fldFrames
	fldLeaseTTL
	fldDegraded
	fldMediaAddr
	fldMediaToken
	fldMediaRelay
	fldMediaEpoch
	fldProbeDsts
	fldProbeRTTs
	fldTimeout
	fldLimit // one past the last valid id
)

var (
	errTruncated  = errors.New("transport: decode: truncated frame")
	errOverslice  = errors.New("transport: decode: slice count exceeds frame")
	errDupedField = errors.New("transport: decode: duplicate field")
)

// AppendMessage appends m's binary encoding to dst and returns the
// extended slice. It never allocates beyond growing dst, so a caller
// reusing a pooled buffer encodes with zero steady-state allocations.
func AppendMessage(dst []byte, m *Message) []byte {
	dst = append(dst, CodecVersion, byte(m.Type))
	dst = appendStringField(dst, fldFrom, string(m.From))
	dst = appendStringField(dst, fldVia, string(m.Via))
	dst = appendStringField(dst, fldError, m.Error)
	dst = appendStringField(dst, fldIP, m.IP)
	dst = appendUvarintField(dst, fldASN, uint64(m.ASN))
	dst = appendStringField(dst, fldClusterKey, m.ClusterKey)
	dst = appendStringField(dst, fldSurrogateAddr, string(m.SurrogateAddr))
	if len(m.ASNs) > 0 {
		dst = append(dst, fldASNs)
		dst = binary.AppendUvarint(dst, uint64(len(m.ASNs)))
		for _, a := range m.ASNs {
			dst = binary.AppendUvarint(dst, uint64(a))
		}
	}
	if len(m.CloseSet) > 0 {
		dst = append(dst, fldCloseSet)
		dst = binary.AppendUvarint(dst, uint64(len(m.CloseSet)))
		for i := range m.CloseSet {
			e := &m.CloseSet[i]
			dst = appendBytes(dst, e.ClusterKey)
			dst = appendBytes(dst, string(e.SurrogateAddr))
			dst = binary.AppendVarint(dst, int64(e.RTT))
		}
	}
	if m.Nodal != (NodalInfo{}) {
		dst = append(dst, fldNodal)
		dst = appendFloat(dst, m.Nodal.BandwidthKbps)
		dst = binary.AppendVarint(dst, int64(m.Nodal.OnlineFor))
		dst = appendFloat(dst, m.Nodal.CPUScore)
	}
	dst = appendDurationField(dst, fldSentAt, m.SentAt)
	dst = appendStringField(dst, fldDst, string(m.Dst))
	dst = appendUvarintField(dst, fldFlowID, m.FlowID)
	dst = appendUvarintField(dst, fldSeq, uint64(m.Seq))
	if len(m.Frames) > 0 {
		dst = append(dst, fldFrames)
		dst = binary.AppendUvarint(dst, uint64(len(m.Frames)))
		dst = append(dst, m.Frames...)
	}
	dst = appendDurationField(dst, fldLeaseTTL, m.LeaseTTL)
	if m.Degraded {
		dst = append(dst, fldDegraded)
	}
	dst = appendStringField(dst, fldMediaAddr, string(m.MediaAddr))
	dst = appendUvarintField(dst, fldMediaToken, uint64(m.MediaToken))
	dst = appendStringField(dst, fldMediaRelay, string(m.MediaRelay))
	dst = appendUvarintField(dst, fldMediaEpoch, uint64(m.MediaEpoch))
	if len(m.ProbeDsts) > 0 {
		dst = append(dst, fldProbeDsts)
		dst = binary.AppendUvarint(dst, uint64(len(m.ProbeDsts)))
		for _, a := range m.ProbeDsts {
			dst = appendBytes(dst, string(a))
		}
	}
	if len(m.ProbeRTTs) > 0 {
		dst = append(dst, fldProbeRTTs)
		dst = binary.AppendUvarint(dst, uint64(len(m.ProbeRTTs)))
		for _, d := range m.ProbeRTTs {
			dst = binary.AppendVarint(dst, int64(d))
		}
	}
	dst = appendDurationField(dst, fldTimeout, m.Timeout)
	return dst
}

// DecodeMessage parses data into m, which must be zeroed (freshly
// allocated or pool-acquired): zero fields are skipped on the wire, so
// leftovers from a previous use would bleed through. Strings that name
// long-lived identities (addresses, cluster keys) are interned, so a
// steady-state decode of control traffic allocates nothing.
func DecodeMessage(data []byte, m *Message) error {
	if len(data) < 2 {
		return errTruncated
	}
	if data[0] != CodecVersion {
		return fmt.Errorf("transport: decode: unsupported codec version %d", data[0])
	}
	// Reject unknown message types up front, mirroring the unknown-field
	// rule below: a frame this build cannot dispatch must fail loudly at
	// the wire, not surface as a zero-value handler mystery. protosync
	// (`make lint`) checks this bound stays tied to the enum.
	t := MsgType(int8(data[1]))
	if t <= 0 || t >= msgTypeLimit {
		return fmt.Errorf("transport: decode: unknown message type %d", data[1])
	}
	m.Type = t
	d := data[2:]
	var seen [fldLimit]bool
	var err error
	for len(d) > 0 {
		id := d[0]
		d = d[1:]
		if id == 0 || id >= fldLimit {
			return fmt.Errorf("transport: decode: unknown field id %d", id)
		}
		if seen[id] {
			return errDupedField
		}
		seen[id] = true
		switch id {
		case fldFrom:
			m.From, d, err = readAddr(d)
		case fldVia:
			m.Via, d, err = readAddr(d)
		case fldError:
			var b []byte
			if b, d, err = readBytes(d); err == nil {
				m.Error = string(b) // free text: not worth interning
			}
		case fldIP:
			m.IP, d, err = readString(d)
		case fldASN:
			m.ASN, d, err = readUint32(d)
		case fldClusterKey:
			m.ClusterKey, d, err = readString(d)
		case fldSurrogateAddr:
			m.SurrogateAddr, d, err = readAddr(d)
		case fldASNs:
			var n uint64
			if n, d, err = readCount(d); err != nil {
				break
			}
			m.ASNs = make([]uint32, 0, n)
			for i := uint64(0); i < n && err == nil; i++ {
				var v uint32
				if v, d, err = readUint32(d); err == nil {
					m.ASNs = append(m.ASNs, v)
				}
			}
		case fldCloseSet:
			var n uint64
			if n, d, err = readCount(d); err != nil {
				break
			}
			m.CloseSet = make([]CloseEntry, 0, n)
			for i := uint64(0); i < n && err == nil; i++ {
				var e CloseEntry
				if e.ClusterKey, d, err = readString(d); err != nil {
					break
				}
				if e.SurrogateAddr, d, err = readAddr(d); err != nil {
					break
				}
				if e.RTT, d, err = readDuration(d); err != nil {
					break
				}
				m.CloseSet = append(m.CloseSet, e)
			}
		case fldNodal:
			if m.Nodal.BandwidthKbps, d, err = readFloat(d); err != nil {
				break
			}
			if m.Nodal.OnlineFor, d, err = readDuration(d); err != nil {
				break
			}
			m.Nodal.CPUScore, d, err = readFloat(d)
		case fldSentAt:
			m.SentAt, d, err = readDuration(d)
		case fldDst:
			m.Dst, d, err = readAddr(d)
		case fldFlowID:
			m.FlowID, d, err = readUvarint(d)
		case fldSeq:
			m.Seq, d, err = readUint32(d)
		case fldFrames:
			var b []byte
			if b, d, err = readBytes(d); err == nil {
				m.Frames = append(m.Frames[:0], b...)
			}
		case fldLeaseTTL:
			m.LeaseTTL, d, err = readDuration(d)
		case fldDegraded:
			m.Degraded = true
		case fldMediaAddr:
			m.MediaAddr, d, err = readAddr(d)
		case fldMediaToken:
			m.MediaToken, d, err = readUint32(d)
		case fldMediaRelay:
			m.MediaRelay, d, err = readAddr(d)
		case fldMediaEpoch:
			m.MediaEpoch, d, err = readUint32(d)
		case fldProbeDsts:
			var n uint64
			if n, d, err = readCount(d); err != nil {
				break
			}
			m.ProbeDsts = make([]Addr, 0, n)
			for i := uint64(0); i < n && err == nil; i++ {
				var a Addr
				if a, d, err = readAddr(d); err == nil {
					m.ProbeDsts = append(m.ProbeDsts, a)
				}
			}
		case fldProbeRTTs:
			var n uint64
			if n, d, err = readCount(d); err != nil {
				break
			}
			m.ProbeRTTs = make([]time.Duration, 0, n)
			for i := uint64(0); i < n && err == nil; i++ {
				var v time.Duration
				if v, d, err = readDuration(d); err == nil {
					m.ProbeRTTs = append(m.ProbeRTTs, v)
				}
			}
		case fldTimeout:
			m.Timeout, d, err = readDuration(d)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// appendStringField writes a length-prefixed string section, skipping
// empty values entirely.
func appendStringField(dst []byte, id byte, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, id)
	return appendBytes(dst, s)
}

// appendUvarintField and appendDurationField write an integer section,
// skipping zero values entirely.
func appendUvarintField(dst []byte, id byte, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return binary.AppendUvarint(append(dst, id), v)
}

func appendDurationField(dst []byte, id byte, d time.Duration) []byte {
	if d == 0 {
		return dst
	}
	return binary.AppendVarint(append(dst, id), int64(d))
}

func appendBytes(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	if f == 0 {
		f = 0 // normalize -0.0: sign-of-zero is noise for measurements
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func readBytes(d []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(d)
	if k <= 0 || n > uint64(len(d)-k) {
		return nil, d, errTruncated
	}
	return d[k : k+int(n)], d[k+int(n):], nil
}

// readString reads a length-prefixed identity string (a cluster key,
// an IP), interned; readAddr reads an address the same way.
func readString(d []byte) (string, []byte, error) {
	b, rest, err := readBytes(d)
	return internString(b), rest, err
}

func readAddr(d []byte) (Addr, []byte, error) {
	s, rest, err := readString(d)
	return Addr(s), rest, err
}

func readUint32(d []byte) (uint32, []byte, error) {
	v, rest, err := readUvarint(d)
	return uint32(v), rest, err
}

func readDuration(d []byte) (time.Duration, []byte, error) {
	v, rest, err := readSvarint(d)
	return time.Duration(v), rest, err
}

func readUvarint(d []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(d)
	if k <= 0 {
		return 0, d, errTruncated
	}
	return v, d[k:], nil
}

func readSvarint(d []byte) (int64, []byte, error) {
	v, k := binary.Varint(d)
	if k <= 0 {
		return 0, d, errTruncated
	}
	return v, d[k:], nil
}

func readFloat(d []byte) (float64, []byte, error) {
	if len(d) < 8 {
		return 0, d, errTruncated
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d)), d[8:], nil
}

// readCount reads a slice-element count and bounds it by the remaining
// frame: every element costs at least one byte on the wire, so a count
// above len(d) is corrupt — rejecting it here keeps a hostile frame
// from forcing a huge pre-allocation.
func readCount(d []byte) (uint64, []byte, error) {
	n, rest, err := readUvarint(d)
	if err != nil {
		return 0, d, err
	}
	if n > uint64(len(rest)) {
		return 0, d, errOverslice
	}
	return n, rest, nil
}

// --- string interning ---

// Decoded identity strings (addresses, cluster keys) recur constantly: a
// node talks to the same few hundred peers over millions of messages (37
// strings over live_tcp's 35,000 calls). Interning them makes steady-state
// decodes allocation-free — the map[string([]byte)] lookup below compiles
// to a no-copy probe. The table is capped so a hostile peer spraying unique
// addresses cannot grow it without bound; past the cap lookups still hit
// for known strings and misses fall back to a plain allocation.
const internLimit = 1 << 16

var strIntern = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string, 256)}

func internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	strIntern.RLock()
	s, ok := strIntern.m[string(b)]
	strIntern.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	strIntern.Lock()
	if got, ok := strIntern.m[s]; ok {
		s = got
	} else if len(strIntern.m) < internLimit {
		strIntern.m[s] = s
	}
	strIntern.Unlock()
	return s
}

// --- frame buffer pooling ---

// Encode/read scratch buffers, recycled like the Message envelopes in
// pool.go. Buffers that ballooned on a large voice batch are dropped at
// release rather than pinning megabytes in the pool.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 4096)
	return &b
}}

// acquireBuf returns an empty scratch buffer. Every acquire must be
// paired with a releaseBuf on all paths, including errors — the
// poolreturn analyzer in asaplint enforces this.
func acquireBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// releaseBuf returns b to the pool, keeping grown capacity up to
// maxPooledBuf.
func releaseBuf(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
