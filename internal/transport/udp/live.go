package udp

import (
	"fmt"
	"net"
	"sync"

	"asap/internal/sim"
	"asap/internal/transport"
)

// Live is the real-socket PacketNetwork: every ListenPacket binds one
// kernel UDP socket, so each voice flow rides its own socket and port —
// independent flows never share a queue (no mux-over-one-stream
// head-of-line blocking), and each socket's external NAT mapping is its
// own, which is what makes per-flow hole punching possible at all.
type Live struct {
	// Sched spawns the per-socket reader goroutines. Nil means the
	// shared wall adapter; Live only exists in live deployments, but
	// routing through a Scheduler keeps every goroutine accounted for.
	Sched sim.Scheduler

	mu     sync.Mutex
	conns  []net.PacketConn
	closed bool
	wg     sync.WaitGroup // reader goroutines, drained by Close
}

// NewLive returns a real-UDP packet network.
func NewLive() *Live { return &Live{} }

// ListenPacket implements transport.PacketNetwork: it binds a UDP socket
// on addr (e.g. "127.0.0.1:0") and pumps every inbound datagram through
// h from a dedicated reader goroutine with pooled buffers.
func (l *Live) ListenPacket(addr transport.Addr, h transport.PacketHandler) (transport.PacketConn, error) {
	if h == nil {
		return nil, fmt.Errorf("udp: ListenPacket needs a handler")
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("udp: network closed")
	}
	l.mu.Unlock()
	pc, err := net.ListenPacket("udp", string(addr))
	if err != nil {
		return nil, fmt.Errorf("udp: listen %s: %w", addr, err)
	}
	l.mu.Lock()
	l.conns = append(l.conns, pc)
	l.mu.Unlock()

	l.wg.Add(1)
	sim.OrWall(l.Sched).Go(func() {
		defer l.wg.Done()
		buf := make([]byte, MaxDatagramSize)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return // socket closed
			}
			h(transport.Addr(from.String()), buf[:n])
		}
	})
	return &liveConn{pc: pc}, nil
}

// MaxDatagramSize is the read-buffer size for live sockets; datagrams
// larger than this are truncated by the kernel read.
const MaxDatagramSize = transport.MaxDatagram

// Close closes every socket the network has opened and waits for the
// reader goroutines to drain: after Close returns, no handler is
// running and none will run.
func (l *Live) Close() error {
	l.mu.Lock()
	l.closed = true
	for _, pc := range l.conns {
		_ = pc.Close()
	}
	l.conns = nil
	l.mu.Unlock()
	l.wg.Wait()
	return nil
}

// liveConn adapts one net.PacketConn to transport.PacketConn.
type liveConn struct {
	pc net.PacketConn

	mu     sync.Mutex
	closed bool
}

// WriteTo implements transport.PacketConn. UDP sends never block on
// delivery; resolution failures and closed sockets are the only errors.
func (c *liveConn) WriteTo(to transport.Addr, data []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return transport.ErrPacketClosed
	}
	dst, err := net.ResolveUDPAddr("udp", string(to))
	if err != nil {
		return fmt.Errorf("udp: resolve %s: %w", to, err)
	}
	if _, err := c.pc.WriteTo(data, dst); err != nil {
		return fmt.Errorf("udp: write to %s: %w", to, err)
	}
	return nil
}

// LocalAddr implements transport.PacketConn.
func (c *liveConn) LocalAddr() transport.Addr {
	return transport.Addr(c.pc.LocalAddr().String())
}

// Close implements transport.PacketConn.
func (c *liveConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.pc.Close()
}

var _ transport.PacketNetwork = (*Live)(nil)
