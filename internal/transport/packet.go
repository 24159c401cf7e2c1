package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Datagram plane. The request/response Transport carries ASAP's control
// traffic; voice rides this second, unreliable plane instead: datagrams
// are fire-and-forget, never block the sender on delivery, and are
// silently dropped when the destination is unreachable — the semantics a
// real UDP socket gives a VoIP stack, and the semantics the NAT
// traversal machinery in internal/nat and internal/transport/udp is
// written against. Keeping the two planes separate also keeps voice
// flows on independent sockets: multiplexing media over one reliable
// stream causes head-of-line blocking (a lesson the related NAT-relay
// repos learned the hard way).

// PacketHandler consumes one inbound datagram. The handler borrows data:
// the slice is valid only until the handler returns, after which the
// network reuses its backing array for another datagram (Mem's in-flight
// copies are pooled, Live reads every datagram of a socket into one
// buffer). An implementation that keeps any part of it — a parsed
// payload included — must copy.
type PacketHandler func(from Addr, data []byte)

// PacketConn is one bound datagram socket.
type PacketConn interface {
	// WriteTo sends one datagram. Delivery is best-effort: an
	// unreachable or unbound destination loses the datagram silently
	// (like UDP), and only local errors (closed socket, oversized
	// datagram) are reported. WriteTo never blocks on delivery and the
	// caller may reuse data as soon as it returns.
	WriteTo(to Addr, data []byte) error
	// LocalAddr returns the bound address (useful for ":0" binds).
	LocalAddr() Addr
	// Close unbinds the socket.
	Close() error
}

// PacketNetwork binds datagram sockets. Implementations: *Mem (in-proc,
// virtual-clock latency), udp.Live (real sockets), nat.Box (emulated NAT
// in front of either), and Chaos.PacketNetwork (fault injection over any
// of them).
type PacketNetwork interface {
	// ListenPacket binds addr and delivers every inbound datagram to h.
	// The handler runs as a scheduler task; it may block on the
	// scheduler (Sleep, Wait) without stalling the network.
	ListenPacket(addr Addr, h PacketHandler) (PacketConn, error)
}

// ErrPacketClosed is returned by WriteTo on a closed packet socket.
var ErrPacketClosed = errors.New("transport: packet socket closed")

// MaxDatagram bounds one datagram's size (voice packets are tiny, 177
// bytes at most on the benchmark: a sanity limit, not a protocol constant).
const MaxDatagram = 64 << 10

// --- Mem datagram plane ---

// memPacketConn is one bound in-memory datagram socket.
type memPacketConn struct {
	m    *Mem
	addr Addr

	mu     sync.Mutex
	closed bool
}

// ListenPacket implements PacketNetwork: it binds addr on the in-memory
// datagram plane, sharing the address namespace with other packet binds
// but not with Serve (a node commonly binds the same string on both
// planes, as one host binds one port on TCP and UDP).
func (m *Mem) ListenPacket(addr Addr, h PacketHandler) (PacketConn, error) {
	if h == nil {
		return nil, errors.New("transport: ListenPacket needs a handler")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("transport: closed")
	}
	if m.packets == nil {
		m.packets = make(map[Addr]PacketHandler)
	}
	if _, ok := m.packets[addr]; ok {
		return nil, fmt.Errorf("transport: packet address %q already bound", addr)
	}
	m.packets[addr] = h
	return &memPacketConn{m: m, addr: addr}, nil
}

// WriteTo implements PacketConn: fire-and-forget delivery. The datagram
// is copied immediately into a pooled in-flight record (the caller may
// reuse the buffer, e.g. return it to a pool) and handed to the
// destination handler as a scheduler task after the one-way link latency
// — never blocking the sender, unlike Call, which sleeps a full round
// trip. An unbound destination drops the datagram silently:
// unreliability is the contract, and the traversal ladder's retries are
// built on top of it.
func (c *memPacketConn) WriteTo(to Addr, data []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrPacketClosed
	}
	if len(data) > MaxDatagram {
		return fmt.Errorf("transport: datagram too large: %d", len(data))
	}
	m := c.m
	m.mu.RLock()
	lat := m.Latency
	dead := m.closed
	m.mu.RUnlock()
	if dead {
		return ErrPacketClosed
	}
	var d time.Duration
	if lat != nil {
		d = lat(c.addr, to)
	}
	dg := newInflight(c.addr, to, data)
	dg.mem = m
	// Deliver as a scheduler task so handlers may block on the
	// scheduler; the handler is looked up at delivery time, so a socket
	// bound (or closed) in flight behaves like the real network.
	m.sched().After(d, dg.run)
	return nil
}

// inflight is one datagram between WriteTo and its handler: the copy of
// the sender's bytes plus where it is going. Records are pooled, and run
// is bound to the record once, when the pool first builds it, so
// scheduling a delivery allocates neither a buffer nor a closure.
// Handlers only borrow data (PacketHandler), which is what makes handing
// the same backing array to the next datagram safe.
type inflight struct {
	from, to Addr
	data     []byte
	// Exactly one sink is set: mem delivers to the handler bound at to
	// on arrival; fwd (a chaos-delayed send) writes on to the inner
	// socket.
	mem *Mem
	fwd PacketConn
	run func() // in.arrive, bound at construction
}

// inflightKeepCap bounds the buffer a recycled record keeps, so one
// jumbo datagram does not pin memory forever.
const inflightKeepCap = 4096

// inflightPool has no New: arrive puts records back, so a New that
// bound arrive would be an initialization cycle. newInflight builds.
var inflightPool sync.Pool

// newInflight returns a pooled record holding a copy of data. The caller
// sets the sink and schedules in.run exactly once; arrive recycles it.
func newInflight(from, to Addr, data []byte) *inflight {
	in, _ := inflightPool.Get().(*inflight)
	if in == nil {
		in = new(inflight)
		in.run = in.arrive
	}
	in.from, in.to = from, to
	in.data = append(in.data[:0], data...)
	return in
}

// arrive runs as the delivery task: hand the datagram to its sink, then
// recycle the record.
func (in *inflight) arrive() {
	if in.fwd != nil {
		_ = in.fwd.WriteTo(in.to, in.data)
	} else {
		m := in.mem
		m.mu.RLock()
		h := m.packets[in.to]
		closed := m.closed
		m.mu.RUnlock()
		if !closed && h != nil {
			h(in.from, in.data)
		} // else dropped on the floor, as UDP would
	}
	in.mem, in.fwd = nil, nil
	if cap(in.data) > inflightKeepCap {
		in.data = nil
	}
	inflightPool.Put(in)
}

// LocalAddr implements PacketConn.
func (c *memPacketConn) LocalAddr() Addr { return c.addr }

// Close implements PacketConn.
func (c *memPacketConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.m.mu.Lock()
	delete(c.m.packets, c.addr)
	c.m.mu.Unlock()
	return nil
}

var _ PacketNetwork = (*Mem)(nil)
