package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"asap/internal/sim"
)

func echoHandler(from Addr, req *Message) (*Message, error) {
	resp := *req
	resp.Type = MsgPong
	return &resp, nil
}

func TestMemServeAndCall(t *testing.T) {
	m := NewMem()
	defer func() { _ = m.Close() }()
	if _, err := m.Serve("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	resp, err := m.Call("a", &Message{Type: MsgPing, From: "b", IP: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgPong || resp.IP != "x" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestMemDuplicateBind(t *testing.T) {
	m := NewMem()
	defer func() { _ = m.Close() }()
	if _, err := m.Serve("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Serve("a", echoHandler); err == nil {
		t.Error("duplicate bind should fail")
	}
}

func TestMemUnreachable(t *testing.T) {
	m := NewMem()
	defer func() { _ = m.Close() }()
	_, err := m.Call("ghost", &Message{Type: MsgPing})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestMemLatency(t *testing.T) {
	m := NewMem()
	defer func() { _ = m.Close() }()
	m.Latency = func(from, to Addr) time.Duration { return 5 * time.Millisecond }
	if _, err := m.Serve("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := m.Call("a", &Message{Type: MsgPing, From: "b"}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Errorf("call took %v, want >= 10ms (2x one-way)", el)
	}
}

func TestMemLatencyVirtual(t *testing.T) {
	// With an injected virtual clock the latency emulation costs virtual
	// time only: the call is delayed 2x one-way on the event queue.
	clk := sim.NewClock()
	m := NewMem()
	defer func() { _ = m.Close() }()
	m.Sched = clk
	m.Latency = func(from, to Addr) time.Duration { return 25 * time.Millisecond }
	if _, err := m.Serve("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	clk.RunTask(func() {
		if _, err := m.Call("a", &Message{Type: MsgPing, From: "b"}); err != nil {
			t.Error(err)
		}
		if clk.Now() != 50*time.Millisecond {
			t.Errorf("call completed at %v, want 50ms of virtual time", clk.Now())
		}
	})
}

func TestMemHandlerError(t *testing.T) {
	m := NewMem()
	defer func() { _ = m.Close() }()
	_, err := m.Serve("a", func(Addr, *Message) (*Message, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("a", &Message{Type: MsgPing}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

func TestMemUnbind(t *testing.T) {
	m := NewMem()
	defer func() { _ = m.Close() }()
	if _, err := m.Serve("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Serve("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	m.Unbind("a")
	if _, err := m.Call("a", &Message{Type: MsgPing}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to unbound addr: err = %v, want ErrUnreachable", err)
	}
	// The rest of the network keeps running.
	if _, err := m.Call("b", &Message{Type: MsgPing}); err != nil {
		t.Errorf("call to live addr after unbind: %v", err)
	}
	// The address can be rebound (node restart).
	if _, err := m.Serve("a", echoHandler); err != nil {
		t.Errorf("rebind after unbind: %v", err)
	}
}

func TestMemClose(t *testing.T) {
	m := NewMem()
	if _, err := m.Serve("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("a", &Message{Type: MsgPing}); err == nil {
		t.Error("call after close should fail")
	}
	if _, err := m.Serve("b", echoHandler); err == nil {
		t.Error("serve after close should fail")
	}
}

func TestMemConcurrentCalls(t *testing.T) {
	m := NewMem()
	defer func() { _ = m.Close() }()
	var mu sync.Mutex
	count := 0
	_, err := m.Serve("a", func(from Addr, req *Message) (*Message, error) {
		mu.Lock()
		count++
		mu.Unlock()
		return &Message{Type: MsgPong}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := m.Call("a", &Message{Type: MsgPing}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if count != 800 {
		t.Errorf("handled %d calls, want 800", count)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tcp := NewTCP()
	defer func() { _ = tcp.Close() }()
	addr, err := tcp.Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tcp.Call(addr, &Message{
		Type: MsgPing, From: "client", IP: "1.2.3.4",
		CloseSet: []CloseEntry{{ClusterKey: "10.0.0.0/24", SurrogateAddr: "s", RTT: 42 * time.Millisecond}},
		Frames:   []byte{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgPong || resp.IP != "1.2.3.4" {
		t.Errorf("resp = %+v", resp)
	}
	if len(resp.CloseSet) != 1 || resp.CloseSet[0].RTT != 42*time.Millisecond {
		t.Errorf("close set did not round trip: %+v", resp.CloseSet)
	}
	if string(resp.Frames) != "\x01\x02\x03" {
		t.Errorf("frames did not round trip: %v", resp.Frames)
	}
}

func TestTCPRemoteError(t *testing.T) {
	tcp := NewTCP()
	defer func() { _ = tcp.Close() }()
	addr, err := tcp.Serve("127.0.0.1:0", func(Addr, *Message) (*Message, error) {
		return nil, errors.New("remote boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tcp.Call(addr, &Message{Type: MsgPing}); err == nil || !strings.Contains(err.Error(), "remote boom") {
		t.Errorf("err = %v", err)
	}
}

func TestTCPUnreachable(t *testing.T) {
	tcp := NewTCP()
	tcp.DialTimeout = 200 * time.Millisecond
	defer func() { _ = tcp.Close() }()
	if _, err := tcp.Call("127.0.0.1:1", &Message{Type: MsgPing}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestTCPConcurrent(t *testing.T) {
	tcp := NewTCP()
	defer func() { _ = tcp.Close() }()
	addr, err := tcp.Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := tcp.Call(addr, &Message{Type: MsgPing}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMemCallRacesClose(t *testing.T) {
	// Calls in flight while Close runs must either succeed or report
	// unreachable — never panic or deadlock (run under -race in CI).
	m := NewMem()
	if _, err := m.Serve("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if _, err := m.Call("a", &Message{Type: MsgPing, From: "b"}); err != nil {
					if !errors.Is(err, ErrUnreachable) {
						t.Errorf("unexpected error: %v", err)
					}
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = m.Close()
	}()
	wg.Wait()
	if _, err := m.Call("a", &Message{Type: MsgPing}); err == nil {
		t.Error("call after close should fail")
	}
}

func TestTCPCallStalledServer(t *testing.T) {
	// A raw listener that accepts and then never reads nor writes: Call
	// must give up via CallTimeout instead of blocking forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn // hold it open, say nothing
		}
	}()

	tcp := NewTCP()
	tcp.CallTimeout = 200 * time.Millisecond
	defer func() { _ = tcp.Close() }()

	start := time.Now()
	_, err = tcp.Call(Addr(ln.Addr().String()), &Message{Type: MsgPing, From: "cli"})
	if err == nil {
		t.Fatal("call against stalled server should fail")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("call took %v, want ~CallTimeout (200ms)", el)
	}
	select {
	case conn := <-accepted:
		_ = conn.Close()
	default:
	}
}

func TestTCPServeStalledClient(t *testing.T) {
	// A client that connects and never sends a frame must not pin the
	// accept-side goroutine: Close has to return once the server read
	// deadline fires.
	tcp := NewTCP()
	tcp.CallTimeout = 100 * time.Millisecond
	addr, err := tcp.Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", string(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	time.Sleep(250 * time.Millisecond) // let the server-side deadline expire

	done := make(chan struct{})
	go func() {
		_ = tcp.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a stalled client connection")
	}
}

// sentAtHandler answers a ping with its SentAt, from the pool as the
// actors do, so a caller can tell its own reply from anyone else's.
func sentAtHandler(_ Addr, req *Message) (*Message, error) {
	resp := AcquireMessage()
	resp.Type, resp.SentAt = MsgPong, req.SentAt
	return resp, nil
}

// pingSentAt calls to with SentAt = v and fails unless exactly v comes back.
func pingSentAt(tcp *TCP, to Addr, v time.Duration) error {
	resp, err := tcp.Call(to, &Message{Type: MsgPing, From: "cli", SentAt: v})
	if err != nil {
		return err
	}
	defer ReleaseMessage(resp)
	if resp.Type != MsgPong || resp.SentAt != v {
		return fmt.Errorf("sent %v, got %v back (type %v)", v, resp.SentAt, resp.Type)
	}
	return nil
}

// connState snapshots the unexported connection bookkeeping.
func connState(t *TCP) (idle []net.Conn, serving int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ic := range t.idle {
		idle = append(idle, ic.conn)
	}
	return idle, len(t.serving)
}

// waitFor polls cond for up to two seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

func TestTCPSequentialCallsShareOneConnection(t *testing.T) {
	srv, cli := NewTCP(), NewTCP()
	defer func() { _ = srv.Close() }()
	defer func() { _ = cli.Close() }()
	addr, err := srv.Serve("127.0.0.1:0", sentAtHandler)
	if err != nil {
		t.Fatal(err)
	}
	var first net.Conn
	for i := 0; i < 1000; i++ {
		if err := pingSentAt(cli, addr, time.Duration(i)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		idle, serving := connState(cli)
		if len(idle) != 1 {
			t.Fatalf("after call %d: %d parked connections, want 1", i, len(idle))
		}
		if i == 0 {
			first = idle[0]
		} else if idle[0] != first {
			t.Fatalf("call %d dialled again: the parked connection changed", i)
		}
		if serving != 0 {
			t.Fatalf("client transport tracks %d served connections, want 0", serving)
		}
	}
	// One dial on the client is one accept on the server.
	if idle, serving := connState(srv); serving != 1 || len(idle) != 0 {
		t.Errorf("server: %d open connections, %d parked; want 1, 0", serving, len(idle))
	}
}

func TestTCPStaleConnectionRedials(t *testing.T) {
	// However a parked connection died on the far side, the next Call
	// notices on use, redials and resends: no error reaches the caller.
	t.Run("server restarted on the same port", func(t *testing.T) {
		srv, cli := NewTCP(), NewTCP()
		defer func() { _ = cli.Close() }()
		addr, err := srv.Serve("127.0.0.1:0", sentAtHandler)
		if err != nil {
			t.Fatal(err)
		}
		if err := pingSentAt(cli, addr, 1); err != nil {
			t.Fatal(err)
		}
		before, _ := connState(cli)
		_ = srv.Close()
		srv = NewTCP()
		defer func() { _ = srv.Close() }()
		if _, err := srv.Serve(addr, sentAtHandler); err != nil {
			t.Fatal(err)
		}
		if err := pingSentAt(cli, addr, 2); err != nil {
			t.Fatalf("call after the server restarted: %v", err)
		}
		after, _ := connState(cli)
		if len(before) != 1 || len(after) != 1 || before[0] == after[0] {
			t.Errorf("parked before %v, after %v: want one connection each, and a new one", before, after)
		}
	})
	t.Run("server idle deadline fired first", func(t *testing.T) {
		// The peer runs a much shorter CallTimeout than the caller, so the
		// caller's own expiry does not get there first.
		srv, cli := NewTCP(), NewTCP()
		srv.CallTimeout = 50 * time.Millisecond
		defer func() { _ = srv.Close() }()
		defer func() { _ = cli.Close() }()
		addr, err := srv.Serve("127.0.0.1:0", sentAtHandler)
		if err != nil {
			t.Fatal(err)
		}
		if err := pingSentAt(cli, addr, 1); err != nil {
			t.Fatal(err)
		}
		if !waitFor(func() bool { _, n := connState(srv); return n == 0 }) {
			t.Fatal("server kept a silent connection past its CallTimeout")
		}
		if err := pingSentAt(cli, addr, 2); err != nil {
			t.Fatalf("call on a connection the server had dropped: %v", err)
		}
	})
	t.Run("server gone for good", func(t *testing.T) {
		// The redial is attempted once and its failure is what surfaces.
		srv, cli := NewTCP(), NewTCP()
		defer func() { _ = cli.Close() }()
		addr, err := srv.Serve("127.0.0.1:0", sentAtHandler)
		if err != nil {
			t.Fatal(err)
		}
		if err := pingSentAt(cli, addr, 1); err != nil {
			t.Fatal(err)
		}
		_ = srv.Close()
		if err := pingSentAt(cli, addr, 2); !errors.Is(err, ErrUnreachable) {
			t.Errorf("err = %v, want ErrUnreachable", err)
		}
		if idle, _ := connState(cli); len(idle) != 0 {
			t.Errorf("%d connections parked after a failed call, want 0", len(idle))
		}
	})
}

func TestTCPTimedOutCallLeavesNoLateReply(t *testing.T) {
	// The frames carry no request id: a reply that arrives after its
	// caller gave up must die with its connection, not answer the next
	// caller.
	srv, cli := NewTCP(), NewTCP()
	cli.CallTimeout = 100 * time.Millisecond
	defer func() { _ = srv.Close() }()
	defer func() { _ = cli.Close() }()
	release := make(chan struct{})
	addr, err := srv.Serve("127.0.0.1:0", func(from Addr, req *Message) (*Message, error) {
		if req.SentAt == 1 {
			<-release // slower than the caller's CallTimeout
		}
		return sentAtHandler(from, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pingSentAt(cli, addr, 0); err != nil { // park a connection first
		t.Fatal(err)
	}
	err = pingSentAt(cli, addr, 1)
	if !errors.Is(err, ErrUnreachable) || !IsTransient(err) {
		t.Fatalf("slow handler: err = %v, want a transient ErrUnreachable", err)
	}
	if idle, _ := connState(cli); len(idle) != 0 {
		t.Fatalf("%d connections parked after a timeout, want 0", len(idle))
	}
	close(release) // the late reply is written now, to a connection nobody reads
	for v := time.Duration(2); v < 10; v++ {
		if err := pingSentAt(cli, addr, v); err != nil {
			t.Fatalf("call after the timeout: %v", err)
		}
	}
}

// TestTCPCallBudget: a request's Timeout shortens the exchange's
// deadline below CallTimeout. Against a server that stalls past the
// budget, the call fails with context.DeadlineExceeded once the budget
// is spent, long before CallTimeout; the request is not resent, and the
// connection, whose late reply nobody will read, is closed, not parked.
func TestTCPCallBudget(t *testing.T) {
	const budget = 50 * time.Millisecond
	srv, cli := NewTCP(), NewTCP()
	defer func() { _ = srv.Close() }()
	defer func() { _ = cli.Close() }()
	release := make(chan struct{})
	var mu sync.Mutex
	slowSeen := 0
	addr, err := srv.Serve("127.0.0.1:0", func(from Addr, req *Message) (*Message, error) {
		if req.SentAt == 1 {
			mu.Lock()
			slowSeen++
			mu.Unlock()
			<-release // past the caller's budget
		}
		return sentAtHandler(from, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)
	if err := pingSentAt(cli, addr, 0); err != nil { // park a connection first
		t.Fatal(err)
	}
	start := time.Now()
	_, err = cli.Call(addr, &Message{Type: MsgPing, From: "cli", SentAt: 1, Timeout: budget})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || !IsTransient(err) {
		t.Fatalf("stalled server: err = %v, want a transient context.DeadlineExceeded", err)
	}
	if elapsed < budget || elapsed > cli.CallTimeout/4 {
		t.Errorf("call gave up after %v, want the %v budget, not the %v CallTimeout", elapsed, budget, cli.CallTimeout)
	}
	if idle, _ := connState(cli); len(idle) != 0 {
		t.Errorf("%d connections parked after the budget ran out, want 0", len(idle))
	}
	mu.Lock()
	seen := slowSeen
	mu.Unlock()
	if seen != 1 {
		t.Errorf("the server saw the budgeted request %d times, want once: a deadline is not a stale connection", seen)
	}
	// Without a budget the next call gets a fresh connection and its own reply.
	if err := pingSentAt(cli, addr, 2); err != nil {
		t.Fatalf("call after the budget ran out: %v", err)
	}
}

func TestTCPConcurrentCallersGetOwnReplies(t *testing.T) {
	srv, cli := NewTCP(), NewTCP()
	defer func() { _ = srv.Close() }()
	defer func() { _ = cli.Close() }()
	addr, err := srv.Serve("127.0.0.1:0", sentAtHandler)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := pingSentAt(cli, addr, time.Duration(g*1000+j)); err != nil {
					t.Errorf("caller %d, call %d: %v", g, j, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	idle, _ := connState(cli)
	if len(idle) == 0 || len(idle) > maxIdlePerPeer {
		t.Errorf("%d connections parked for one peer, want 1..%d", len(idle), maxIdlePerPeer)
	}
}

func TestTCPIdleBounds(t *testing.T) {
	srv, cli := NewTCP(), NewTCP()
	defer func() { _ = srv.Close() }()
	defer func() { _ = cli.Close() }()
	addrs := make([]Addr, maxIdleTotal+3)
	for i := range addrs {
		addr, err := srv.Serve("127.0.0.1:0", sentAtHandler)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		if err := pingSentAt(cli, addr, time.Duration(i)); err != nil {
			t.Fatal(err)
		}
	}
	if idle, _ := connState(cli); len(idle) != maxIdleTotal {
		t.Fatalf("%d connections parked over %d peers, want %d", len(idle), len(addrs), maxIdleTotal)
	}
	// The least recently used were the ones dropped, and the server saw
	// them go.
	cli.mu.Lock()
	oldest := cli.idle[0].to
	cli.mu.Unlock()
	if oldest != addrs[3] {
		t.Errorf("oldest parked connection is to %s, want %s (the 4th peer called)", oldest, addrs[3])
	}
	if !waitFor(func() bool { _, n := connState(srv); return n == maxIdleTotal }) {
		_, n := connState(srv)
		t.Errorf("server holds %d open connections, want %d", n, maxIdleTotal)
	}
}

func TestTCPIdleExpiry(t *testing.T) {
	// A connection parked for more than half of CallTimeout is replaced
	// before the peer's own idle deadline can cut it mid-exchange.
	srv, cli := NewTCP(), NewTCP()
	cli.CallTimeout = 100 * time.Millisecond
	defer func() { _ = srv.Close() }()
	defer func() { _ = cli.Close() }()
	addr, err := srv.Serve("127.0.0.1:0", sentAtHandler)
	if err != nil {
		t.Fatal(err)
	}
	if err := pingSentAt(cli, addr, 1); err != nil {
		t.Fatal(err)
	}
	before, _ := connState(cli)
	time.Sleep(80 * time.Millisecond)
	if err := pingSentAt(cli, addr, 2); err != nil {
		t.Fatal(err)
	}
	after, _ := connState(cli)
	if len(before) != 1 || len(after) != 1 || before[0] == after[0] {
		t.Fatalf("parked before %v, after %v: want the expired connection replaced", before, after)
	}
	if !waitFor(func() bool { _, n := connState(srv); return n == 1 }) {
		_, n := connState(srv)
		t.Errorf("server holds %d open connections, want 1: the expired one was not closed", n)
	}
}

func TestTCPClosePromptWithParkedConnections(t *testing.T) {
	// Two nodes that each serve and call the other, default 10 s
	// CallTimeout: Close must not sit out a read deadline on an idle
	// keep-alive connection, and every task must end.
	base := runtime.NumGoroutine()
	a, b := NewTCP(), NewTCP()
	addrA, err := a.Serve("127.0.0.1:0", sentAtHandler)
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := b.Serve("127.0.0.1:0", sentAtHandler)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ { // concurrent, so more than one connection each way
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := pingSentAt(a, addrB, time.Duration(g*100+j)); err != nil {
					t.Error(err)
				}
				if err := pingSentAt(b, addrA, time.Duration(g*100+j)); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, tcp := range []*TCP{a, b} {
		if idle, serving := connState(tcp); len(idle) == 0 || serving == 0 {
			t.Fatalf("want parked and served connections on both nodes, got %d and %d", len(idle), serving)
		}
	}
	start := time.Now()
	_ = a.Close()
	_ = b.Close()
	if el := time.Since(start); el > time.Second {
		t.Errorf("Close took %v with idle keep-alive connections, want < 1s", el)
	}
	for _, tcp := range []*TCP{a, b} {
		if idle, serving := connState(tcp); len(idle) != 0 || serving != 0 {
			t.Errorf("after Close: %d parked, %d served connections, want 0, 0", len(idle), serving)
		}
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines after Close, %d before the transports existed", runtime.NumGoroutine(), base)
	}
	// A closed transport serves nothing further and keeps no connection.
	if _, err := a.Serve("127.0.0.1:0", sentAtHandler); err == nil {
		t.Error("Serve after Close should fail")
	}
}

func TestTCPCallRacesClose(t *testing.T) {
	// Calls in flight while both ends close must either succeed or report
	// unreachable, and a connection that finishes its exchange after Close
	// must be closed rather than parked where nothing would ever reap it.
	srv, cli := NewTCP(), NewTCP()
	addr, err := srv.Serve("127.0.0.1:0", sentAtHandler)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if j == 10 {
					started <- struct{}{}
				}
				if err := pingSentAt(cli, addr, time.Duration(g*1000+j)); err != nil {
					if !errors.Is(err, ErrUnreachable) {
						t.Errorf("unexpected error: %v", err)
					}
					return
				}
			}
		}(g)
	}
	<-started
	_ = cli.Close()
	_ = srv.Close()
	wg.Wait()
	if idle, _ := connState(cli); len(idle) != 0 {
		t.Errorf("%d connections parked on a closed transport, want 0", len(idle))
	}
}

// TestTCPCallAllocs holds the kept-connection round trip — both sides of
// the loopback: frame, encode, decode, handler dispatch, park — at zero
// allocations for a ping, and at the decoded CloseSet slice (which
// ReleaseMessage drops by design) for a close-set reply.
func TestTCPCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	set := make([]CloseEntry, 16)
	for i := range set {
		set[i] = CloseEntry{
			ClusterKey:    fmt.Sprintf("10.%d.0.0/16", 100+i),
			SurrogateAddr: Addr(fmt.Sprintf("10.%d.0.1:7600", 100+i)),
			RTT:           time.Duration(20+3*i) * time.Millisecond,
		}
	}
	srv, cli := NewTCP(), NewTCP()
	defer func() { _ = srv.Close() }()
	defer func() { _ = cli.Close() }()
	addr, err := srv.Serve("127.0.0.1:0", func(from Addr, req *Message) (*Message, error) {
		if req.Type == MsgGetCloseSet {
			resp := AcquireMessage()
			resp.Type, resp.CloseSet = MsgGetCloseSetReply, set
			return resp, nil
		}
		return sentAtHandler(from, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	call := func(typ MsgType) {
		req := AcquireMessage()
		req.Type, req.From = typ, "alloc-client"
		resp, err := cli.Call(addr, req)
		ReleaseMessage(req)
		if err != nil {
			panic(err)
		}
		ReleaseMessage(resp)
	}
	for _, tc := range []struct {
		name string
		typ  MsgType
		max  float64
	}{
		{"ping", MsgPing, 0},
		{"closeset", MsgGetCloseSet, 2},
	} {
		for i := 0; i < 10; i++ { // dial, fill the pools and the intern table
			call(tc.typ)
		}
		if n := testing.AllocsPerRun(500, func() { call(tc.typ) }); n > tc.max {
			t.Errorf("%s round trip on a warm connection allocates %.2f times, want <= %v", tc.name, n, tc.max)
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	tcp := NewTCP()
	defer func() { _ = tcp.Close() }()
	addr, err := tcp.Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	// A message that encodes past the frame cap must be rejected on the
	// write side — before any bytes hit the wire — with a non-transient
	// error, so the retry layer gives up instead of re-sending a frame
	// that can never fit.
	big := &Message{Type: MsgVoice, Frames: make([]byte, maxFrame+1)}
	_, err = tcp.Call(addr, big)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Call with oversize frame: err = %v, want ErrFrameTooLarge", err)
	}
	if IsTransient(err) {
		t.Fatalf("ErrFrameTooLarge must not be transient: %v", err)
	}
	// The read side enforces the same cap independently: a handcrafted
	// header advertising an oversize body is rejected before allocation.
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], maxFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("readFrame with oversize header: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestReadFrameGrowsAsBytesArrive: a header claiming the largest legal
// frame, followed by ten body bytes and EOF, must fail without the
// reader allocating what the header claimed.
func TestReadFrameGrowsAsBytesArrive(t *testing.T) {
	in := make([]byte, 4+10)
	binary.BigEndian.PutUint32(in[:4], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("readFrame of a truncated body returned no error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Fatalf("readFrame allocated %d bytes for a 14-byte input, want under 256 KiB", got)
	}
}
