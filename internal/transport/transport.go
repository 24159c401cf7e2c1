// Package transport provides the message layer the runnable ASAP daemon
// speaks: a request/response Transport interface with two
// implementations — an in-memory transport for simulation and tests, and
// a TCP transport (stdlib net, length-prefixed binary frames — see
// codec.go) for real deployments — plus the ASAP wire-message schema.
//
// The protocol actors in internal/core/actors.go are written against the
// Transport interface only, so the same code runs simulated and live.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"asap/internal/sim"
)

// Addr identifies a node ("host:port" for TCP, any unique string for the
// in-memory transport).
type Addr string

// Handler processes one request and returns a response.
type Handler func(from Addr, req *Message) (*Message, error)

// Transport sends requests and registers handlers.
type Transport interface {
	// Serve registers the handler for an address and starts accepting
	// requests. It returns the bound address (useful for ":0" listens).
	Serve(addr Addr, h Handler) (Addr, error)
	// Call sends a request and waits for the response.
	Call(to Addr, req *Message) (*Message, error)
	// Close stops all serving.
	Close() error
}

// ErrUnreachable is returned when the destination does not answer.
var ErrUnreachable = errors.New("transport: unreachable")

// IsTransient reports whether err is a transport-level delivery failure
// that a retry may fix (unreachable peer, timeout, broken connection), as
// opposed to a remote handler rejecting the request — a protocol error a
// retry can never fix. Retry helpers must consult this before backing off.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrUnreachable) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// --- In-memory transport ---

// Mem is an in-process transport with optional synthetic latency. It is
// safe for concurrent use.
type Mem struct {
	mu       sync.RWMutex
	handlers map[Addr]Handler
	packets  map[Addr]PacketHandler // datagram plane (see packet.go)
	closed   bool
	shard    *memSharding // nil unless EnableSharding was called
	// Latency, if set, returns the one-way delay between two addresses;
	// Call sleeps it on the scheduler before invoking the handler and
	// again before returning the response, so the handler observes the
	// request at send-time + one-way delay — the same virtual instant in
	// single-clock and sharded execution.
	Latency func(from, to Addr) time.Duration
	// Sched is the time source for latency emulation. Nil means real time
	// (a shared wall adapter); simulations inject their *sim.Clock so the
	// delay costs virtual time only. Ignored on the Call path in sharded
	// mode, where each endpoint sleeps on its own shard's clock.
	Sched sim.Scheduler
}

// memSharding routes cross-shard calls through a conservative-lookahead
// ShardRunner (see sim/shard.go and Mem.EnableSharding).
type memSharding struct {
	runner  *sim.ShardRunner
	shardOf func(Addr) int
}

// NewMem returns an empty in-memory transport.
func NewMem() *Mem {
	return &Mem{handlers: make(map[Addr]Handler)}
}

// Serve implements Transport.
func (m *Mem) Serve(addr Addr, h Handler) (Addr, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", errors.New("transport: closed")
	}
	if _, ok := m.handlers[addr]; ok {
		return "", fmt.Errorf("transport: address %q already bound", addr)
	}
	m.handlers[addr] = h
	return addr, nil
}

// EnableSharding switches the Call path to conservative-lookahead
// sharded execution: a call whose endpoints map to different shards is
// posted to the target shard's clock (arriving one-way latency later),
// runs the handler there, and posts the response back — instead of
// running the handler inline on the caller's clock. shardOf must be a
// pure function of the address, every caller must run as a task on its
// own shard's clock, and every cross-shard latency must be at least the
// runner's lookahead bound (violations panic). Call before the
// deployment starts; sharding cannot be toggled mid-run.
func (m *Mem) EnableSharding(r *sim.ShardRunner, shardOf func(Addr) int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shard = &memSharding{runner: r, shardOf: shardOf}
}

// Call implements Transport. With latency emulation the handler runs
// one-way latency after the send and the response lands one-way latency
// after the handler returns — symmetric legs, as on a real link. With a
// Timeout budget, a request whose one-way latency is not below it is
// dropped in transit (no handler runs), and so is a reply that would
// land at or after send + budget; the caller returns at send + budget
// with an error wrapping context.DeadlineExceeded. Handlers run on the
// caller's task, so that is exact only for a handler that does not
// block; MsgPing's, the one budgeted request, never does.
func (m *Mem) Call(to Addr, req *Message) (*Message, error) {
	m.mu.RLock()
	h := m.handlers[to]
	lat := m.Latency
	closed := m.closed
	sh := m.shard
	m.mu.RUnlock()
	if closed || h == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	// The wire sender of this hop: the forwarding relay when Via is set,
	// the protocol origin otherwise. Latency and shard placement are hop
	// properties, so both key off it.
	src := req.Via
	if src == "" {
		src = req.From
	}
	var d time.Duration
	if lat != nil {
		d = lat(src, to)
	}
	sched := sim.OrWall(m.Sched)
	sFrom, sTo := 0, 0
	if sh != nil {
		// Under the sharded runner the caller runs as a task on its own
		// shard's clock, so that clock — not the global Sched — charges
		// the latency legs and the budget.
		sFrom, sTo = sh.shardOf(src), sh.shardOf(to)
		sched = sh.runner.Clock(sFrom)
	}
	budget := req.Timeout
	if budget > 0 && d >= budget {
		sched.Sleep(budget) // the request is still in flight when the budget runs out
		return nil, budgetExceeded(to, budget)
	}
	if sFrom != sTo {
		return m.callCrossShard(sh, sFrom, sTo, to, req, d)
	}
	start := sched.Now()
	if d > 0 {
		sched.Sleep(d)
	}
	resp, err := m.deliver(to, req)
	if budget > 0 && sched.Now()+d >= start+budget { // the reply is dropped
		if rest := start + budget - sched.Now(); rest > 0 {
			sched.Sleep(rest)
		}
		return nil, budgetExceeded(to, budget)
	}
	if d > 0 {
		sched.Sleep(d)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// deliver hands req to to's handler as it arrives. Both Call paths
// re-check reachability at delivery time: an unbind while the request
// was in flight is an unreachable peer, not a delivery to a stale
// handler snapshot, and the paths must agree or sharded runs would
// diverge from sequential ones whenever churn races a call.
func (m *Mem) deliver(to Addr, req *Message) (*Message, error) {
	m.mu.RLock()
	h, closed := m.handlers[to], m.closed
	m.mu.RUnlock()
	if closed || h == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	return h(req.From, req)
}

// budgetExceeded is the error of a Mem call whose Timeout ran out.
func budgetExceeded(to Addr, budget time.Duration) error {
	return fmt.Errorf("transport: %s: no reply within %v: %w", to, budget, context.DeadlineExceeded)
}

// callCrossShard is the sharded Call path: request and response travel
// as cross-shard events through the runner's barrier, and the handler
// executes as a task on the target shard's clock at exactly the same
// virtual instant the inline path would have run it. A reply that
// lands after the caller's budget finds its waiter timed out.
func (m *Mem) callCrossShard(sh *memSharding, sFrom, sTo int, to Addr, req *Message, d time.Duration) (*Message, error) {
	if d < sh.runner.Lookahead() {
		panic(fmt.Sprintf("transport: cross-shard latency %v (%s -> %s) below the runner's %v lookahead bound", d, req.From, to, sh.runner.Lookahead()))
	}
	src := sh.runner.Clock(sFrom)
	dst := sh.runner.Clock(sTo)
	w := src.NewWaiter()
	var resp *Message
	var callErr error
	budget := req.Timeout
	if budget > 0 {
		// The caller may give up and recycle its request while the other
		// shard's goroutine still reads it: send a copy.
		cp := *req
		req = &cp
	} else {
		budget = -1 // no deadline
	}
	sh.runner.Post(sFrom, sTo, src.Now()+d, func() {
		r, err := m.deliver(to, req)
		sh.runner.Post(sTo, sFrom, dst.Now()+d, func() {
			resp, callErr = r, err
			w.Wake()
		})
	})
	if !w.Wait(budget) {
		return nil, budgetExceeded(to, budget)
	}
	return resp, callErr
}

// Unbind drops the handler for addr, making the node unreachable. Tests
// use it to simulate a crashed relay: subsequent Calls to addr return
// ErrUnreachable while the rest of the network keeps running.
func (m *Mem) Unbind(addr Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handlers, addr)
}

// Close implements Transport.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.handlers = make(map[Addr]Handler)
	m.packets = nil
	return nil
}

// --- TCP transport ---

// TCP is a length-prefixed binary-codec transport over real sockets
// that keeps its connections, HTTP/1.1 keep-alive style: a Call takes an
// idle connection to the peer (or dials one), runs exactly one
// request/response exchange on it and parks it again, and the serving
// side answers request after request on one connection until the peer
// hangs up or stays silent for CallTimeout. The frames carry no request
// id, so a connection is used by one exchange at a time and is parked
// only after a complete reply was read; after any failure it is closed,
// which is what keeps a late reply from ever reaching the next caller.
// A parked connection the peer has closed in the meantime costs a
// redial and a resend, not an error (see Call).
type TCP struct {
	mu        sync.Mutex
	listeners []net.Listener
	idle      []idleConn            // parked client connections, oldest first
	serving   map[net.Conn]struct{} // open server-side connections
	closed    bool
	wg        sync.WaitGroup
	// Sched spawns the accept-loop and per-connection goroutines and
	// ages the parked connections. Nil means the shared wall adapter: the
	// TCP transport only exists in live deployments, but routing through
	// a Scheduler keeps every goroutine in internal/ accounted for
	// (DESIGN.md §9).
	Sched sim.Scheduler
	// DialTimeout bounds connection setup (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one full request/response exchange (default
	// 10s), and on the serving side the wait for a connection's next
	// request. Without it, a peer that accepts and then stalls — never
	// reading the request or never writing a response — blocks the caller
	// forever. Zero disables the deadline.
	CallTimeout time.Duration
}

// idleConn is a client connection parked between two Calls.
type idleConn struct {
	to    Addr
	conn  net.Conn
	since time.Duration // sched().Now() when it was parked
}

// Bounds on the parked client connections: a burst of concurrent Calls
// to one peer keeps at most maxIdlePerPeer of the connections it opened,
// and a node that talks to many peers keeps the maxIdleTotal most
// recently used (which also bounds the scan in takeIdle and park).
const (
	maxIdlePerPeer = 4
	maxIdleTotal   = 64
)

// NewTCP returns a TCP transport.
func NewTCP() *TCP {
	return &TCP{DialTimeout: 5 * time.Second, CallTimeout: 10 * time.Second}
}

// arm gives conn CallTimeout from now for whatever comes next, or the
// request budget when that is set and shorter.
func (t *TCP) arm(conn net.Conn, budget time.Duration) {
	limit := t.CallTimeout
	if budget > 0 && (limit <= 0 || budget < limit) {
		limit = budget
	}
	if limit > 0 {
		//lint:allow schedtime net.Conn deadlines are absolute wall-clock instants; the Scheduler's relative clock cannot express them
		_ = conn.SetDeadline(time.Now().Add(limit))
	}
}

// Serve implements Transport: it listens on addr (e.g. "127.0.0.1:0")
// and dispatches each inbound request to h.
func (t *TCP) Serve(addr Addr, h Handler) (Addr, error) {
	ln, err := net.Listen("tcp", string(addr))
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("transport: closed")
	}
	t.listeners = append(t.listeners, ln)
	t.mu.Unlock()

	t.wg.Add(1)
	sim.OrWall(t.Sched).Go(func() {
		defer t.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.wg.Add(1)
			sim.OrWall(t.Sched).Go(func() {
				defer t.wg.Done()
				t.serveConn(conn, h)
			})
		}
	})
	return Addr(ln.Addr().String()), nil
}

// serveConn answers the requests arriving on one accepted connection,
// one at a time, until the peer hangs up, a frame fails, or no request
// arrives within CallTimeout: a client that connects and never sends —
// or parks the connection and never comes back — pins this task exactly
// that long, and Close cuts it short.
func (t *TCP) serveConn(conn net.Conn, h Handler) {
	defer func() { _ = conn.Close() }()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if t.serving == nil {
		t.serving = make(map[net.Conn]struct{})
	}
	t.serving[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.serving, conn)
		t.mu.Unlock()
	}()
	for {
		t.arm(conn, 0)
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		resp, err := h(req.From, req)
		if err != nil {
			resp = errorReply(err)
		}
		// The wait for the request must not eat into the reply's time.
		t.arm(conn, 0)
		err = writeFrame(conn, resp)
		// The request envelope came from the pool (readFrame) and
		// handlers never retain it; the response is recycled too
		// unless the handler echoed the request back.
		if resp != req {
			ReleaseMessage(resp)
		}
		ReleaseMessage(req)
		if err != nil {
			return
		}
	}
}

// errorReply is the frame a failed handler answers with; the caller's
// side turns it back into an error.
func errorReply(err error) *Message {
	m := AcquireMessage()
	m.Type, m.Error = MsgError, err.Error()
	return m
}

// Call implements Transport: one exchange on a kept connection to the
// peer, or on a fresh one when none is parked. Handlers may see a
// request twice — the same at-least-once contract RetryPolicy.Do already
// imposes — because a parked connection can be one the peer has closed
// since (it restarted, or its idle deadline fired): when the exchange on
// a reused connection fails before a reply was read, and not by running
// into CallTimeout, Call dials and resends once. Every other failure
// surfaces exactly as it does on a connection dialled for the call.
func (t *TCP) Call(to Addr, req *Message) (*Message, error) {
	conn := t.takeIdle(to)
	if conn != nil {
		resp, stale, err := t.exchange(conn, to, req)
		if !stale {
			return resp, err
		}
	}
	conn, err := net.DialTimeout("tcp", string(to), t.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, to, err)
	}
	resp, _, err := t.exchange(conn, to, req)
	return resp, err
}

// exchange runs one request/response exchange on conn, which the caller
// holds exclusively, within CallTimeout or the request's Timeout budget,
// whichever is shorter. A connection that carried a complete reply is
// parked; after any failure it is closed, never parked dirty. stale
// reports a failure that a connection closed by the peer while it was
// parked would produce — anything but a deadline timeout or an oversize
// request — which on a reused connection earns one redial.
func (t *TCP) exchange(conn net.Conn, to Addr, req *Message) (resp *Message, stale bool, err error) {
	t.arm(conn, req.Timeout)
	err = writeFrame(conn, req)
	if errors.Is(err, ErrFrameTooLarge) {
		// Re-sending the same message can never fit, so this surfaces
		// as-is and the retry layer gives up.
		_ = conn.Close()
		return nil, false, err
	}
	if err == nil {
		resp, err = readFrame(conn)
	}
	if err != nil {
		// Frame-level failures (peer died mid-exchange, deadline hit)
		// count as unreachable: the control-plane retry layer treats them
		// as transient.
		_ = conn.Close()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, false, fmt.Errorf("%w: %s: %v (%w)", ErrUnreachable, to, err, context.DeadlineExceeded)
		}
		return nil, true, fmt.Errorf("%w: %s: %v", ErrUnreachable, to, err)
	}
	t.park(to, conn)
	if resp.Type == MsgError {
		err = fmt.Errorf("transport: remote error: %s", resp.Error)
		ReleaseMessage(resp)
		return nil, false, err
	}
	return resp, false, nil
}

// takeIdle hands out the most recently parked connection to the peer,
// or nil. Connections parked for more than half of CallTimeout are
// closed on the way: the peer's serving side gives up on a silent
// connection after its own CallTimeout, and one about to be cut is not
// worth a resend.
func (t *TCP) takeIdle(to Addr) net.Conn {
	now := sim.OrWall(t.Sched).Now()
	var conn net.Conn
	var expired []net.Conn
	t.mu.Lock()
	if ttl := t.CallTimeout / 2; ttl > 0 {
		for len(t.idle) > 0 && now-t.idle[0].since > ttl {
			expired = append(expired, t.unparkLocked(0))
		}
	}
	for i := len(t.idle) - 1; i >= 0; i-- {
		if t.idle[i].to == to {
			conn = t.unparkLocked(i)
			break
		}
	}
	t.mu.Unlock()
	for _, c := range expired {
		_ = c.Close()
	}
	return conn
}

// unparkLocked removes and returns the i-th parked connection.
func (t *TCP) unparkLocked(i int) net.Conn {
	conn := t.idle[i].conn
	last := len(t.idle) - 1
	copy(t.idle[i:], t.idle[i+1:])
	t.idle[last] = idleConn{}
	t.idle = t.idle[:last]
	return conn
}

// park returns a connection that just carried a complete exchange to
// the idle list, closing the peer's oldest — or the oldest of all — when
// that puts the list over its bounds.
func (t *TCP) park(to Addr, conn net.Conn) {
	now := sim.OrWall(t.Sched).Now()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = conn.Close()
		return
	}
	t.idle = append(t.idle, idleConn{to: to, conn: conn, since: now})
	n, oldest := 0, 0
	for i := len(t.idle) - 1; i >= 0; i-- {
		if t.idle[i].to == to {
			n, oldest = n+1, i
		}
	}
	var evicted net.Conn
	switch {
	case n > maxIdlePerPeer:
		evicted = t.unparkLocked(oldest)
	case len(t.idle) > maxIdleTotal:
		evicted = t.unparkLocked(0)
	}
	t.mu.Unlock()
	if evicted != nil {
		_ = evicted.Close()
	}
}

// Close implements Transport: it stops all listeners, closes the parked
// client connections and the open server-side ones — an idle keep-alive
// connection would otherwise hold its task until the read deadline —
// and waits for the accept loops and inflight handlers (a handler still
// running finishes; its reply goes down with the connection). A closed
// transport serves nothing further and keeps no connection.
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	listeners, idle, serving := t.listeners, t.idle, t.serving
	t.listeners, t.idle, t.serving = nil, nil, nil
	t.mu.Unlock()
	for _, ln := range listeners {
		_ = ln.Close()
	}
	for _, ic := range idle {
		_ = ic.conn.Close()
	}
	for conn := range serving {
		_ = conn.Close()
	}
	t.wg.Wait()
	return nil
}

const maxFrame = 16 << 20

// frameStep bounds how far readFrame grows a body buffer ahead of the
// bytes received.
const frameStep = 64 << 10

// ErrFrameTooLarge is returned by the write side when a message encodes
// past maxFrame. Unlike wire failures it is not transient: a retry
// re-encodes the same oversize message, so the retry layer must not
// back off on it (it is deliberately not wrapped in ErrUnreachable).
var ErrFrameTooLarge = errors.New("transport: frame too large")

// writeFrame encodes m with the binary codec (codec.go) into a pooled
// buffer — header and body leave in one Write — and enforces maxFrame
// before any bytes touch the wire.
func writeFrame(w io.Writer, m *Message) error {
	bp := acquireBuf()
	b := append((*bp)[:0], 0, 0, 0, 0) // reserve the length header
	b = AppendMessage(b, m)
	n := len(b) - 4
	if n > maxFrame {
		*bp = b
		releaseBuf(bp)
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	_, err := w.Write(b)
	*bp = b
	releaseBuf(bp)
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// readFrame reads one length-prefixed frame into a pooled buffer and
// decodes it into a pooled Message. The caller owns the returned
// Message and should ReleaseMessage it when done.
func readFrame(r io.Reader) (*Message, error) {
	bp := acquireBuf()
	// The header is read into the pooled buffer too: a local array would
	// escape through the io.Reader interface, one allocation per frame.
	b := (*bp)[:4]
	if _, err := io.ReadFull(r, b); err != nil {
		releaseBuf(bp)
		return nil, fmt.Errorf("transport: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(b)
	if n > maxFrame {
		releaseBuf(bp)
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	// The body grows by at most frameStep past the bytes that have
	// arrived, so a header claiming maxFrame costs memory only as the
	// peer actually sends; a frame that fits the buffer reads in one go.
	b = b[:0]
	for len(b) < int(n) {
		step := min(int(n)-len(b), frameStep)
		b = slices.Grow(b, step)
		k, err := io.ReadFull(r, b[len(b):len(b)+step])
		b = b[:len(b)+k]
		if err != nil {
			*bp = b
			releaseBuf(bp)
			return nil, fmt.Errorf("transport: read body: %w", err)
		}
	}
	m := AcquireMessage()
	err := DecodeMessage(b, m)
	*bp = b
	releaseBuf(bp)
	if err != nil {
		ReleaseMessage(m)
		return nil, err
	}
	return m, nil
}

// Interface compliance checks.
var (
	_ Transport = (*Mem)(nil)
	_ Transport = (*TCP)(nil)
)
