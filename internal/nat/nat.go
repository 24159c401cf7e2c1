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
// PortRestricted, Symmetric. A released external port stays bound in the
// box's warm reserve and is the next one handed out; new ports are
// allocated sequentially, wrapping within [basePort, 65535] past ports
// still bound, so a given program order yields identical mappings on
// every run: the emulator is fully deterministic, which the two-run
// byte-identical traversal tests rely on.
package nat

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"asap/internal/sim"
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
	basePort int
	nextPort int
	wrapped  bool                  // nextPort has passed maxPort once: ports may be bound
	conns    map[*boxConn]struct{} // open private sockets
	// reserve is the box's warm reserve: mappings of closed private
	// sockets, their external sockets still bound on their ports, handed
	// to the next socket that needs a mapping. An idle one delivers
	// nothing: its owner is nil.
	reserve sim.FreeList[*mapping]
	closed  bool
}

// maxPort is the last external port; allocation wraps back to basePort.
const maxPort = 65535

// maxFreeMappings bounds a box's warm reserve: as many mappings as one
// closing socket usually holds (STUN, peer, relay). A released mapping
// the reserve refuses is unbound.
const maxFreeMappings = 3

// mapping is one external port owned by one private socket (for one
// destination, when symmetric), or idle in its box's reserve with no
// owner. Its external socket stays bound from its first use until the
// reserve refuses it or the box closes.
type mapping struct {
	box   *Box
	owner *boxConn
	ext   transport.PacketConn
	// sent is the send history the inbound filter reads: each distinct
	// destination once, in first-send order, searched most-recent-first.
	// A mapping sends to a handful (STUN, relay, peer), so the first
	// few live in sentBuf. A symmetric mapping sends to one: sent[0] is
	// the destination it serves.
	sent    []transport.Addr
	sentBuf [4]transport.Addr
	port    int32
}

// New builds a NAT box of behaviour typ in front of outer. extHost is
// the box's public IP; external mappings bind extHost:port on outer with
// ports allocated sequentially from basePort up to 65535, then from
// basePort again, past the ports still bound. A port a closed socket
// released is reused, still bound, before a new one is allocated.
func New(typ Type, outer transport.PacketNetwork, extHost string, basePort int) *Box {
	return &Box{
		typ:      typ,
		outer:    outer,
		extHost:  extHost,
		basePort: basePort,
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
	c.perDst = c.dstBuf[:0]
	b.conns[c] = struct{}{}
	return c, nil
}

// Close tears down the box and every external mapping, the reserve's
// too.
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
	for m, ok := b.reserve.Get(); ok; m, ok = b.reserve.Get() {
		exts = append(exts, m.ext)
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

// Mappings reports the external addresses the box's open private
// sockets hold, in sorted order — a diagnostic for tests and the
// determinism harness. The idle ports of the reserve are not listed.
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
	if m, ok := b.reserve.Get(); ok {
		// Still bound: nothing to do on the outer network.
		b.attachLocked(c, m)
		m.noteSent(dst)
		return m, nil
	}
	port, ok := b.takePortLocked()
	if !ok {
		return nil, fmt.Errorf("nat: no free external port on %s", b.extHost)
	}
	var buf [32]byte
	extAddr := transport.Addr(strconv.AppendInt(append(append(buf[:0], b.extHost...), ':'), int64(port), 10))
	m := &mapping{box: b, port: int32(port)}
	// Bind the external socket on the outer network. Its handler is the
	// inbound half of the NAT: filter, then deliver to the private
	// socket. ListenPacket on Mem/Live does no blocking I/O, but drop
	// the lock anyway — the outer network may be another Box.
	b.mu.Unlock()
	ext, err := b.outer.ListenPacket(extAddr, m.inbound)
	b.mu.Lock()
	if err != nil {
		return nil, fmt.Errorf("nat: bind external %s: %w", extAddr, err)
	}
	m.ext = ext
	if prior := b.lookupLocked(c, dst); c.closed || prior != nil {
		// m is not needed: the socket closed during the bind (as every
		// socket does when the box closes), or a concurrent send to dst
		// bound a mapping first.
		if e := b.retireLocked(m); e != nil {
			b.mu.Unlock()
			_ = e.Close()
			b.mu.Lock()
		}
		if c.closed {
			return nil, transport.ErrPacketClosed
		}
		prior.noteSent(dst)
		return prior, nil
	}
	b.attachLocked(c, m)
	m.noteSent(dst)
	return m, nil
}

// attachLocked makes m, bound and owned by no socket, c's mapping.
// Called with b.mu held.
func (b *Box) attachLocked(c *boxConn, m *mapping) {
	m.owner = c
	m.sent = m.sentBuf[:0]
	if b.typ == Symmetric {
		c.perDst = append(c.perDst, m)
	} else {
		c.cone = m
	}
}

// retireLocked takes m from its owner, forgetting whom it sent to, and
// keeps it bound in the reserve. It returns m's external socket when
// the reserve refuses m (it is full, or the box closed), for the caller
// to close once b.mu is released, and nil otherwise. Called with b.mu
// held.
func (b *Box) retireLocked(m *mapping) transport.PacketConn {
	// Field by field: inbound reads m.box before it takes b.mu.
	m.owner, m.sent, m.sentBuf = nil, nil, [len(m.sentBuf)]transport.Addr{}
	if !b.closed && b.reserve.Put(m, maxFreeMappings) {
		return nil
	}
	return m.ext
}

// takePortLocked returns the next external port: sequential up to
// maxPort, then from basePort again, skipping the ports live and
// reserved mappings still hold. It reports false when every port of
// the range is bound.
// Called with b.mu held.
func (b *Box) takePortLocked() (int, bool) {
	for range maxPort - b.basePort + 1 {
		port := b.nextPort
		if b.nextPort++; b.nextPort > maxPort {
			b.nextPort, b.wrapped = b.basePort, true
		}
		if !b.wrapped || !b.portBoundLocked(port) {
			return port, true
		}
	}
	return 0, false
}

// portBoundLocked reports whether a live or reserved mapping holds port.
// Before the first wrap no port can be, so only a wrapped box asks.
// Called with b.mu held.
func (b *Box) portBoundLocked(port int) bool {
	if b.reserve.Any(func(m *mapping) bool { return int(m.port) == port }) {
		return true
	}
	for c := range b.conns {
		if c.cone != nil && int(c.cone.port) == port {
			return true
		}
		for _, m := range c.perDst {
			if int(m.port) == port {
				return true
			}
		}
	}
	return false
}

// lookupLocked returns the mapping c uses toward dst, or nil: cone NATs
// reuse one mapping for every destination, symmetric NATs keep one per
// destination. Called with b.mu held.
func (b *Box) lookupLocked(c *boxConn, dst transport.Addr) *mapping {
	if b.typ == Symmetric {
		for _, m := range c.perDst {
			if m.sent[0] == dst {
				return m
			}
		}
		return nil
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
// hand the datagram to the private socket with the public source
// intact. A reserved mapping has no owner and drops everything.
func (m *mapping) inbound(from transport.Addr, data []byte) {
	b := m.box
	b.mu.Lock()
	if b.closed || m.owner == nil || m.owner.closed {
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
	cone   *mapping   // a cone NAT's one mapping
	perDst []*mapping // a symmetric NAT's, one per destination, in creation order
	dstBuf [4]*mapping
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

// Close releases the private socket. Its mappings go to the box's
// reserve, still bound, in creation order; those the reserve refuses
// are unbound.
func (c *boxConn) Close() error {
	b := c.box
	b.mu.Lock()
	if c.closed {
		b.mu.Unlock()
		return nil
	}
	c.closed = true
	delete(b.conns, c)
	var buf [4]transport.PacketConn // a socket holds a handful of mappings
	exts := buf[:0]
	if c.cone != nil {
		if e := b.retireLocked(c.cone); e != nil {
			exts = append(exts, e)
		}
	}
	for _, m := range c.perDst {
		if e := b.retireLocked(m); e != nil {
			exts = append(exts, e)
		}
	}
	c.cone, c.perDst = nil, nil
	b.mu.Unlock()
	for _, e := range exts {
		_ = e.Close()
	}
	return nil
}

var (
	_ transport.PacketNetwork = (*Box)(nil)
	_ transport.PacketConn    = (*boxConn)(nil)
)
