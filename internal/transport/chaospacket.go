package transport

// Datagram-plane fault injection. Chaos was written against Call, whose
// failures are errors the caller sees and whose added latency can block
// the calling task for the round trip. Datagrams have neither property:
// a dropped packet is silent (the sender learns nothing, exactly like
// UDP), and added latency must delay *delivery*, not the sender — a
// voice loop that blocked inside WriteTo would stall its own jitter
// clock. PacketNetwork therefore reuses the same seeded fault tables
// (drop probabilities, blackholes, fail budgets, outage windows anchored
// at scheduler offsets — nothing about those was TCP-specific) but
// applies them with datagram semantics: faults consume the shared RNG
// stream, drops return nil, and latency is an asynchronous After on the
// way in to the inner network.

import "asap/internal/sim"

// PacketNetwork returns a view of inner that injects this Chaos
// instance's faults into every datagram sent through it. The view shares
// the fault tables and the seeded RNG with the call plane: a -chaos spec
// degrades both planes coherently, and fault outcomes stay a
// deterministic function of the seed and the interleaved send sequence.
func (c *Chaos) PacketNetwork(inner PacketNetwork) PacketNetwork {
	return &chaosPacketNet{c: c, inner: inner}
}

// chaosPacketNet decorates a PacketNetwork with the parent Chaos faults.
type chaosPacketNet struct {
	c     *Chaos
	inner PacketNetwork
}

// ListenPacket implements PacketNetwork. Inbound delivery is never
// faulted — like the call plane, failures are injected on the send side
// only, which suffices because every datagram is a send.
func (n *chaosPacketNet) ListenPacket(addr Addr, h PacketHandler) (PacketConn, error) {
	conn, err := n.inner.ListenPacket(addr, h)
	if err != nil {
		return nil, err
	}
	return &chaosPacketConn{c: n.c, inner: conn}, nil
}

// chaosPacketConn applies the fault tables to each WriteTo.
type chaosPacketConn struct {
	c     *Chaos
	inner PacketConn
}

// WriteTo implements PacketConn. A faulted datagram vanishes silently
// (nil error): the sender of an unreliable datagram cannot observe loss,
// and the retry/accounting layers above must cope — that is the point.
func (p *chaosPacketConn) WriteTo(to Addr, data []byte) error {
	c := p.c
	fault, _, extra := c.decide(to, true)
	if fault != "" {
		return nil
	}
	if extra > 0 {
		// Delay delivery, not the sender: the datagram is copied into a
		// pooled in-flight record (the caller may reuse the buffer
		// immediately, per the PacketConn contract) and forwarded from a
		// scheduler task after the extra latency has elapsed.
		dg := newInflight("", to, data)
		dg.fwd = p.inner
		sim.OrWall(c.Sched).After(extra, dg.run)
		return nil
	}
	return p.inner.WriteTo(to, data)
}

// LocalAddr implements PacketConn.
func (p *chaosPacketConn) LocalAddr() Addr { return p.inner.LocalAddr() }

// Close implements PacketConn.
func (p *chaosPacketConn) Close() error { return p.inner.Close() }

var (
	_ PacketNetwork = (*chaosPacketNet)(nil)
	_ PacketConn    = (*chaosPacketConn)(nil)
)
