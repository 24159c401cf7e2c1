// Package nat is a deterministic NAT emulator for the voice data plane.
// A Box sits between private sockets and a public packet network and
// implements transport.PacketNetwork itself, so the udp endpoint code
// runs unmodified behind it — the same composition trick as
// transport.Chaos, but modelling address translation instead of faults.
//
// The model follows the classic STUN taxonomy (RFC 3489) on two axes:
//
//	mapping:   cone (one external port per private socket) vs
//	           symmetric (one external port per (socket, destination))
//	filtering: none (full cone), address-restricted, or
//	           address-and-port-restricted
//
// composed into the four familiar behaviours — FullCone, AddrRestricted,
// PortRestricted, Symmetric. External ports are allocated sequentially,
// so a given program order yields identical mappings on every run: the
// emulator is fully deterministic, which the two-run byte-identical
// traversal tests rely on.
package nat

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"asap/internal/transport"
)

// Type is a NAT behaviour: a (mapping, filtering) pair from the RFC 3489
// taxonomy.
type Type int

// The four classic NAT behaviours, in increasing order of hostility to
// traversal.
const (
	// FullCone: one mapping per socket, no inbound filtering — anyone
	// who learns the external address can send to it.
	FullCone Type = iota
	// AddrRestricted: inbound allowed only from IPs the socket has sent
	// to (any port).
	AddrRestricted
	// PortRestricted: inbound allowed only from exact address:port pairs
	// the socket has sent to.
	PortRestricted
	// Symmetric: a fresh external port per destination, plus
	// port-restricted filtering. Observers see different ports, so
	// nothing they exchange predicts the mapping a new destination gets —
	// the case that defeats hole punching.
	Symmetric
)

// Types lists all behaviours in order, for matrix tests.
var Types = []Type{FullCone, AddrRestricted, PortRestricted, Symmetric}

// String renders the type for logs and reports.
func (t Type) String() string {
	switch t {
	case FullCone:
		return "full-cone"
	case AddrRestricted:
		return "addr-restricted"
	case PortRestricted:
		return "port-restricted"
	case Symmetric:
		return "symmetric"
	default:
		return fmt.Sprintf("nat(%d)", int(t))
	}
}

// ParseType parses a behaviour name as printed by String.
func ParseType(s string) (Type, error) {
	for _, t := range Types {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("nat: unknown type %q", s)
}

// Box emulates one NAT device. Private sockets bind through
// ListenPacket; their datagrams egress onto the outer network from
// sequentially allocated external addresses, and inbound datagrams are
// mapped back (or filtered) per the configured behaviour.
type Box struct {
	typ   Type
	outer transport.PacketNetwork
	// extHost is the public IP the box owns, e.g. "198.51.100.7". Every
	// external mapping binds "extHost:port" on the outer network.
	extHost string

	mu       sync.Mutex
	nextPort int
	conns    map[*boxConn]struct{} // open private sockets
	closed   bool
}

// mapping is one external port owned by one private socket (for one
// destination, when symmetric).
type mapping struct {
	owner *boxConn
	ext   transport.PacketConn
	// sent is the send history the inbound filter reads: each distinct
	// destination once, in first-send order, searched most-recent-first.
	// A mapping sends to a handful (STUN, relay, peer), so the first
	// few live in sentBuf.
	sent    []transport.Addr
	sentBuf [4]transport.Addr
}

// New builds a NAT box of behaviour typ in front of outer. extHost is
// the box's public IP; external mappings bind extHost:port on outer with
// ports allocated sequentially from basePort.
func New(typ Type, outer transport.PacketNetwork, extHost string, basePort int) *Box {
	return &Box{
		typ:      typ,
		outer:    outer,
		extHost:  extHost,
		nextPort: basePort,
		conns:    make(map[*boxConn]struct{}),
	}
}

// Type returns the box's behaviour.
func (b *Box) Type() Type { return b.typ }

// ListenPacket implements transport.PacketNetwork for the private side.
// addr is the private address ("" or host:0 auto-assigns); h receives
// datagrams that survive the box's inbound filter, with the sender's
// *public* address — exactly what a real NATed socket observes.
func (b *Box) ListenPacket(addr transport.Addr, h transport.PacketHandler) (transport.PacketConn, error) {
	if h == nil {
		return nil, fmt.Errorf("nat: ListenPacket needs a handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("nat: box closed")
	}
	c := &boxConn{box: b, local: addr, h: h}
	b.conns[c] = struct{}{}
	return c, nil
}

// Close tears down the box and every external mapping.
func (b *Box) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	var exts []transport.PacketConn
	for c := range b.conns {
		exts = c.releaseLocked(exts)
	}
	// Deterministic teardown order, like everything else in the emulator.
	slices.SortFunc(exts, byLocalAddr)
	b.conns = nil
	b.mu.Unlock()
	for _, e := range exts {
		_ = e.Close()
	}
	return nil
}

// Mappings reports the box's live external addresses in sorted order —
// a diagnostic for tests and the determinism harness.
func (b *Box) Mappings() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var exts []transport.PacketConn
	for c := range b.conns {
		exts = c.extsLocked(exts)
	}
	slices.SortFunc(exts, byLocalAddr)
	var out []string
	for _, e := range exts {
		out = append(out, string(e.LocalAddr()))
	}
	return out
}

// mappingFor returns (allocating if needed) the external mapping conn c
// uses toward dst, and records dst in the mapping's send history.
// Called with b.mu held; allocation does outer I/O, so the lock is
// dropped around it and the race re-checked.
func (b *Box) mappingFor(c *boxConn, dst transport.Addr) (*mapping, error) {
	if c.closed {
		return nil, transport.ErrPacketClosed
	}
	if m := b.lookupLocked(c, dst); m != nil {
		m.noteSent(dst)
		return m, nil
	}
	port := b.nextPort
	b.nextPort++
	var buf [32]byte
	extAddr := transport.Addr(strconv.AppendInt(append(append(buf[:0], b.extHost...), ':'), int64(port), 10))
	m := &mapping{owner: c}
	m.sent = m.sentBuf[:0]
	// Bind the external socket on the outer network. Its handler is the
	// inbound half of the NAT: filter, then deliver to the private
	// socket. ListenPacket on Mem/Live does no blocking I/O, but drop
	// the lock anyway — the outer network may be another Box.
	b.mu.Unlock()
	ext, err := b.outer.ListenPacket(extAddr, func(from transport.Addr, data []byte) {
		b.inbound(m, from, data)
	})
	b.mu.Lock()
	if err != nil {
		return nil, fmt.Errorf("nat: bind external %s: %w", extAddr, err)
	}
	m.ext = ext
	if !c.closed {
		if prior := b.lookupLocked(c, dst); prior != nil {
			// Lost the re-bind race; keep the first mapping.
			b.mu.Unlock()
			_ = ext.Close()
			b.mu.Lock()
			prior.noteSent(dst)
			return prior, nil
		}
		if b.typ == Symmetric {
			if c.perDst == nil {
				c.perDst = make(map[transport.Addr]*mapping)
			}
			c.perDst[dst] = m
		} else {
			c.cone = m
		}
	}
	m.noteSent(dst)
	return m, nil
}

// lookupLocked returns the mapping c uses toward dst, or nil: cone NATs
// reuse one mapping for every destination, symmetric NATs keep one per
// destination. Called with b.mu held.
func (b *Box) lookupLocked(c *boxConn, dst transport.Addr) *mapping {
	if b.typ == Symmetric {
		return c.perDst[dst]
	}
	return c.cone
}

func (m *mapping) noteSent(dst transport.Addr) {
	for i := len(m.sent) - 1; i >= 0; i-- {
		if m.sent[i] == dst {
			return
		}
	}
	m.sent = append(m.sent, dst)
}

// sentTo reports whether m has sent to src exactly (byHost false) or
// to any port of src's host (byHost true).
func (m *mapping) sentTo(src transport.Addr, byHost bool) bool {
	h := host(src)
	for i := len(m.sent) - 1; i >= 0; i-- {
		if d := m.sent[i]; d == src || byHost && host(d) == h {
			return true
		}
	}
	return false
}

// admit applies the box's inbound filter for a datagram arriving on m
// from src. Caller holds b.mu.
func (b *Box) admit(m *mapping, src transport.Addr) bool {
	switch b.typ {
	case FullCone:
		return true
	case AddrRestricted:
		return m.sentTo(src, true)
	case PortRestricted, Symmetric:
		return m.sentTo(src, false)
	default:
		return false
	}
}

// inbound is the external socket's handler: filter per behaviour, then
// hand the datagram to the private socket with the public source intact.
func (b *Box) inbound(m *mapping, from transport.Addr, data []byte) {
	b.mu.Lock()
	if b.closed || m.owner.closed {
		b.mu.Unlock()
		return
	}
	ok := b.admit(m, from)
	h := m.owner.h
	b.mu.Unlock()
	if ok {
		h(from, data)
	}
	// Filtered datagrams vanish, as a NAT's do.
}

// host strips the port from an addr ("10.0.0.2:4000" → "10.0.0.2").
func host(a transport.Addr) string {
	s := string(a)
	if i := strings.LastIndex(s, ":"); i >= 0 {
		return s[:i]
	}
	return s
}

// boxConn is one private socket behind the box. Its mappings and closed
// flag are guarded by box.mu.
type boxConn struct {
	box    *Box
	local  transport.Addr
	h      transport.PacketHandler
	cone   *mapping                    // a cone NAT's one mapping
	perDst map[transport.Addr]*mapping // a symmetric NAT's, per destination
	closed bool
}

// releaseLocked marks c closed and appends the external conns of its
// mappings to exts, for the caller to close once b.mu is released.
func (c *boxConn) releaseLocked(exts []transport.PacketConn) []transport.PacketConn {
	if c.closed {
		return exts
	}
	c.closed = true
	return c.extsLocked(exts)
}

// extsLocked appends the external conns of c's mappings to exts, in
// address order.
func (c *boxConn) extsLocked(exts []transport.PacketConn) []transport.PacketConn {
	if c.cone != nil {
		exts = append(exts, c.cone.ext)
	}
	sym := len(exts)
	for _, m := range c.perDst {
		exts = append(exts, m.ext)
	}
	slices.SortFunc(exts[sym:], byLocalAddr)
	return exts
}

func byLocalAddr(a, b transport.PacketConn) int {
	return strings.Compare(string(a.LocalAddr()), string(b.LocalAddr()))
}

// WriteTo sends a datagram to a public destination through the box: the
// mapping (existing or freshly allocated) does the actual send, and the
// destination is recorded for the return filter.
func (c *boxConn) WriteTo(to transport.Addr, data []byte) error {
	c.box.mu.Lock()
	if c.box.closed {
		c.box.mu.Unlock()
		return transport.ErrPacketClosed
	}
	m, err := c.box.mappingFor(c, to)
	c.box.mu.Unlock()
	if err != nil {
		return err
	}
	return m.ext.WriteTo(to, data)
}

// LocalAddr returns the socket's *private* address. Discover (STUN) is
// how a flow learns its external one.
func (c *boxConn) LocalAddr() transport.Addr { return c.local }

// Close releases the private socket and its external mappings.
func (c *boxConn) Close() error {
	c.box.mu.Lock()
	delete(c.box.conns, c)
	var buf [4]transport.PacketConn // a socket holds a handful of mappings
	exts := c.releaseLocked(buf[:0])
	c.box.mu.Unlock()
	for _, e := range exts {
		_ = e.Close()
	}
	return nil
}

var (
	_ transport.PacketNetwork = (*Box)(nil)
	_ transport.PacketConn    = (*boxConn)(nil)
)
