package nat

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// rig is one NAT box in front of a public Mem network under a virtual
// clock, with a public observer socket for poking at the box from
// outside.
type rig struct {
	clk   *sim.Clock
	outer *transport.Mem
	box   *Box
}

func newRig(t *testing.T, typ Type) *rig {
	t.Helper()
	clk := sim.NewClock()
	m := transport.NewMem()
	m.Sched = clk
	m.Latency = func(from, to transport.Addr) time.Duration { return time.Millisecond }
	t.Cleanup(func() { _ = m.Close() })
	return &rig{clk: clk, outer: m, box: New(typ, m, "1.2.3.4", 40000)}
}

// public binds an observer on the outer network recording datagrams.
func (r *rig) public(t *testing.T, addr transport.Addr) (transport.PacketConn, *[]string) {
	t.Helper()
	var seen []string
	c, err := r.outer.ListenPacket(addr, func(from transport.Addr, data []byte) {
		seen = append(seen, string(from)+"/"+string(data))
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, &seen
}

func TestParseType(t *testing.T) {
	for _, typ := range Types {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("ParseType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	if _, err := ParseType("carrier-grade"); err == nil {
		t.Error("unknown type should fail to parse")
	}
}

func TestOutboundTranslation(t *testing.T) {
	// Outbound datagrams appear to come from the box's external address,
	// not the private one; external ports allocate sequentially.
	r := newRig(t, FullCone)
	_, seen := r.public(t, "server:1")
	priv, err := r.box.ListenPacket("10.0.0.2:5000", func(transport.Addr, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	r.clk.RunTask(func() {
		if err := priv.WriteTo("server:1", []byte("hello")); err != nil {
			t.Fatal(err)
		}
		r.clk.Sleep(10 * time.Millisecond)
	})
	if len(*seen) != 1 || (*seen)[0] != "1.2.3.4:40000/hello" {
		t.Errorf("server saw %v, want [1.2.3.4:40000/hello]", *seen)
	}
	if priv.LocalAddr() != "10.0.0.2:5000" {
		t.Errorf("private addr leaked: %s", priv.LocalAddr())
	}
}

func TestConeMappingReuse(t *testing.T) {
	// Cone NATs: one external port per socket, regardless of destination.
	r := newRig(t, PortRestricted)
	_, seen1 := r.public(t, "s1:1")
	_, seen2 := r.public(t, "s2:1")
	priv, _ := r.box.ListenPacket("10.0.0.2:5000", func(transport.Addr, []byte) {})
	r.clk.RunTask(func() {
		_ = priv.WriteTo("s1:1", []byte("a"))
		_ = priv.WriteTo("s2:1", []byte("b"))
		r.clk.Sleep(10 * time.Millisecond)
	})
	if len(*seen1) != 1 || len(*seen2) != 1 {
		t.Fatalf("servers saw %v / %v", *seen1, *seen2)
	}
	if (*seen1)[0] != "1.2.3.4:40000/a" || (*seen2)[0] != "1.2.3.4:40000/b" {
		t.Errorf("cone NAT used different mappings: %v / %v", *seen1, *seen2)
	}
}

func TestSymmetricMappingPerDestination(t *testing.T) {
	// Symmetric NATs: a fresh external port per destination.
	r := newRig(t, Symmetric)
	_, seen1 := r.public(t, "s1:1")
	_, seen2 := r.public(t, "s2:1")
	priv, _ := r.box.ListenPacket("10.0.0.2:5000", func(transport.Addr, []byte) {})
	r.clk.RunTask(func() {
		_ = priv.WriteTo("s1:1", []byte("a"))
		_ = priv.WriteTo("s2:1", []byte("b"))
		r.clk.Sleep(10 * time.Millisecond)
	})
	if (*seen1)[0] != "1.2.3.4:40000/a" || (*seen2)[0] != "1.2.3.4:40001/b" {
		t.Errorf("symmetric NAT reused a mapping: %v / %v", *seen1, *seen2)
	}
}

// filterCase drives one inbound-filter scenario: the private socket
// sends to "friend:1", then inbound datagrams from various sources try
// to get back in through the mapping (1.2.3.4:40000).
func filterCase(t *testing.T, typ Type, from transport.Addr, wantThrough bool) {
	t.Helper()
	r := newRig(t, typ)
	var got []string
	priv, err := r.box.ListenPacket("10.0.0.2:5000", func(from transport.Addr, data []byte) {
		got = append(got, string(from)+"/"+string(data))
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := r.outer.ListenPacket(from, func(transport.Addr, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if from != "friend:1" {
		// Bind the outbound target so the opener datagram has somewhere
		// to land (it may be the sender itself).
		if _, err := r.outer.ListenPacket("friend:1", func(transport.Addr, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	r.clk.RunTask(func() {
		if err := priv.WriteTo("friend:1", []byte("open")); err != nil {
			t.Fatal(err)
		}
		r.clk.Sleep(10 * time.Millisecond)
		if err := sender.WriteTo("1.2.3.4:40000", []byte("in")); err != nil {
			t.Fatal(err)
		}
		r.clk.Sleep(10 * time.Millisecond)
	})
	through := len(got) > 0
	if through != wantThrough {
		t.Errorf("%v: datagram from %s through mapping = %v, want %v", typ, from, through, wantThrough)
	}
	if through && got[0] != string(from)+"/in" {
		t.Errorf("delivered %q: source must be the public address", got[0])
	}
}

func TestInboundFiltering(t *testing.T) {
	cases := []struct {
		typ  Type
		from transport.Addr
		want bool
	}{
		// Full cone: anyone gets in.
		{FullCone, "stranger:9", true},
		// Address-restricted: same host ok (any port), stranger not.
		{AddrRestricted, "friend:1", true},
		{AddrRestricted, "friend:2", true},
		{AddrRestricted, "stranger:9", false},
		// Port-restricted: exact addr:port only.
		{PortRestricted, "friend:1", true},
		{PortRestricted, "friend:2", false},
		{PortRestricted, "stranger:9", false},
		// Symmetric filters like port-restricted.
		{Symmetric, "friend:1", true},
		{Symmetric, "friend:2", false},
	}
	for _, c := range cases {
		filterCase(t, c.typ, c.from, c.want)
	}
}

// TestSendHistoryFilter drives the send history directly: after sends to
// more distinct destinations than the inline buffer holds (and repeats),
// an address-restricted mapping admits another port of a host it sent
// to, a port-restricted one admits only the exact addresses, and neither
// admits a host that merely shares a prefix.
func TestSendHistoryFilter(t *testing.T) {
	sends := []transport.Addr{"stun:3478", "friend:1", "relay:5000", "friend:1", "a:1", "b:1", "c:1", "stun:3478"}
	cases := []struct {
		from         transport.Addr
		addrR, portR bool
	}{
		{"friend:1", true, true},
		{"friend:2", true, false},
		{"stun:3478", true, true},
		{"stun:1", true, false},
		{"c:1", true, true},
		{"c:2", true, false},
		{"frien:1", false, false},
		{"friend2:1", false, false},
		{"stranger:9", false, false},
	}
	for _, typ := range []Type{AddrRestricted, PortRestricted} {
		b := &Box{typ: typ}
		m := &mapping{}
		m.sent = m.sentBuf[:0]
		for _, d := range sends {
			m.noteSent(d)
		}
		if len(m.sent) != 6 {
			t.Fatalf("%v: history %v, want the 6 distinct destinations once each", typ, m.sent)
		}
		for _, c := range cases {
			want := c.addrR
			if typ == PortRestricted {
				want = c.portR
			}
			if got := b.admit(m, c.from); got != want {
				t.Errorf("%v: admit(%s) = %v, want %v", typ, c.from, got, want)
			}
		}
	}
}

func TestInboundToUnmappedPortDropped(t *testing.T) {
	// Without any outbound traffic there is no mapping: the external
	// port is simply not bound, and the datagram is lost on the outer
	// network.
	r := newRig(t, FullCone)
	var got int
	if _, err := r.box.ListenPacket("10.0.0.2:5000", func(transport.Addr, []byte) { got++ }); err != nil {
		t.Fatal(err)
	}
	sender, _ := r.public(t, "stranger:9")
	r.clk.RunTask(func() {
		if err := sender.WriteTo("1.2.3.4:40000", []byte("in")); err != nil {
			t.Fatal(err)
		}
		r.clk.Sleep(10 * time.Millisecond)
	})
	if got != 0 {
		t.Errorf("datagram reached a private socket with no mapping")
	}
}

func TestSequentialPortsDeterministic(t *testing.T) {
	// Two identically-programmed runs allocate identical mappings.
	run := func() []string {
		clk := sim.NewClock()
		m := transport.NewMem()
		m.Sched = clk
		defer func() { _ = m.Close() }()
		box := New(Symmetric, m, "9.9.9.9", 50000)
		p1, _ := box.ListenPacket("10.0.0.1:1", func(transport.Addr, []byte) {})
		p2, _ := box.ListenPacket("10.0.0.2:1", func(transport.Addr, []byte) {})
		clk.RunTask(func() {
			_ = p1.WriteTo("a:1", []byte("x"))
			_ = p1.WriteTo("b:1", []byte("x"))
			_ = p2.WriteTo("a:1", []byte("x"))
		})
		return box.Mappings()
	}
	m1, m2 := run(), run()
	if len(m1) != 3 {
		t.Fatalf("mappings = %v, want 3", m1)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("runs diverged: %v vs %v", m1, m2)
		}
	}
}

func TestBoxClose(t *testing.T) {
	r := newRig(t, FullCone)
	priv, err := r.box.ListenPacket("10.0.0.2:5000", func(transport.Addr, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	r.clk.RunTask(func() {
		_ = priv.WriteTo("server:1", []byte("x"))
	})
	if err := r.box.Close(); err != nil {
		t.Fatal(err)
	}
	if err := priv.WriteTo("server:1", []byte("x")); err == nil {
		t.Error("write through a closed box should fail")
	}
	if _, err := r.box.ListenPacket("10.0.0.3:1", func(transport.Addr, []byte) {}); err == nil {
		t.Error("bind through a closed box should fail")
	}
}

func TestConnCloseReleasesMappings(t *testing.T) {
	r := newRig(t, FullCone)
	priv, _ := r.box.ListenPacket("10.0.0.2:5000", func(transport.Addr, []byte) {})
	r.clk.RunTask(func() {
		_ = priv.WriteTo("server:1", []byte("x"))
	})
	if n := len(r.box.Mappings()); n != 1 {
		t.Fatalf("mappings = %d, want 1", n)
	}
	if err := priv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(r.box.Mappings()); n != 0 {
		t.Errorf("mappings = %d after close, want 0", n)
	}
}

// stubOuter is an outer network whose binds deliver nothing: what is
// left to count is the box's own work. Its sockets come from a ring, so
// a bind allocates nothing. With record set it also keeps every address
// bound, in order, and refuses one that is still bound.
type stubOuter struct {
	record bool
	bound  []transport.Addr
	live   map[transport.Addr]bool
	open   int
	ring   [32]stubConn
	next   int
}

type stubConn struct {
	o    *stubOuter
	addr transport.Addr
}

func (o *stubOuter) ListenPacket(addr transport.Addr, _ transport.PacketHandler) (transport.PacketConn, error) {
	if o.record {
		if o.live[addr] {
			return nil, fmt.Errorf("stub: %s already bound", addr)
		}
		o.live[addr] = true
		o.bound = append(o.bound, addr)
	}
	o.open++
	c := &o.ring[o.next%len(o.ring)]
	o.next++
	*c = stubConn{o: o, addr: addr}
	return c, nil
}

func (c *stubConn) WriteTo(transport.Addr, []byte) error { return nil }
func (c *stubConn) LocalAddr() transport.Addr            { return c.addr }
func (c *stubConn) Close() error {
	c.o.open--
	if c.o.record {
		delete(c.o.live, c.addr)
	}
	return nil
}

// TestMappingChurnAllocs: once a box's reserve holds mappings, opening a
// mapping and releasing it again — a call's socket sending to its
// destinations, then closing — allocates nothing: each mapping comes
// out of the reserve still bound, so nothing is bound on the outer
// network and no address is formatted, and a symmetric socket's
// per-destination table is inline. While the box lives it keeps at most
// maxFreeMappings external sockets bound after every close; Box.Close
// unbinds them all.
func TestMappingChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	dsts := []transport.Addr{"stun:1", "peer:1", "relay:1"}
	for _, typ := range []Type{FullCone, PortRestricted, Symmetric} {
		o := &stubOuter{}
		box := New(typ, o, "1.2.3.4", 40000)
		var before, after runtime.MemStats
		var total uint64
		const rounds = 200
		for i := range rounds + 10 {
			c, err := box.ListenPacket("10.0.0.2:5000", func(transport.Addr, []byte) {})
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			for _, d := range dsts {
				if err := c.WriteTo(d, nil); err != nil {
					t.Fatal(err)
				}
			}
			_ = c.Close()
			runtime.ReadMemStats(&after)
			if i >= 10 { // the first rounds fill the reserve
				total += after.Mallocs - before.Mallocs
			}
			if o.open > maxFreeMappings {
				t.Fatalf("%v: %d external sockets bound after a close, want at most %d", typ, o.open, maxFreeMappings)
			}
		}
		// Whole allocations per churn, as testing.AllocsPerRun counts
		// them: a stray runtime allocation in the window does not count.
		if got := total / rounds; got != 0 {
			t.Errorf("%v: %d allocs per churn, want 0", typ, got)
		}
		_ = box.Close()
		if o.open != 0 {
			t.Errorf("%v: %d external sockets still bound after Box.Close", typ, o.open)
		}
	}
}

// TestPortsWrapPastBound: a box's external ports run from basePort to
// 65535, then from basePort again, skipping the ports a live or
// reserved mapping still holds; with every port held by a live mapping,
// a new mapping fails instead of binding past 65535; a port released
// past the reserve's bound is handed out again.
func TestPortsWrapPastBound(t *testing.T) {
	o := &stubOuter{record: true, live: map[transport.Addr]bool{}}
	box := New(Symmetric, o, "1.2.3.4", 65531) // five ports, 65531–65535
	open := func() transport.PacketConn {
		c, err := box.ListenPacket("10.0.0.2:1", func(transport.Addr, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	send := func(c transport.PacketConn, dsts ...transport.Addr) {
		t.Helper()
		for _, d := range dsts {
			if err := c.WriteTo(d, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	x, a := open(), open()
	send(x, "s:1")                          // 65531
	send(a, "d1:1", "d2:1", "d3:1", "d4:1") // 65532–65535
	if err := open().WriteTo("s:1", nil); err == nil {
		t.Error("a mapping was made with every port of the range held")
	}
	_ = a.Close() // 65532–65534 stay bound in the reserve; 65535 is unbound
	_ = x.Close() // the reserve is full: 65531 is unbound
	if o.open != maxFreeMappings {
		t.Fatalf("%d external sockets bound, want the reserve's %d", o.open, maxFreeMappings)
	}
	b := open()
	send(b, "d1:1", "d2:1", "d3:1") // 65534, 65533, 65532 from the reserve
	send(b, "d4:1")                 // wraps to basePort: 65531, released by x
	send(b, "d5:1")                 // 65532–65534 are b's: 65535
	want := "1.2.3.4:65531 1.2.3.4:65532 1.2.3.4:65533 1.2.3.4:65534 1.2.3.4:65535 1.2.3.4:65531 1.2.3.4:65535"
	if got := fmt.Sprint(o.bound); got != "["+want+"]" {
		t.Errorf("bound %v, want [%s]", got, want)
	}
	// b's first three mappings go to the reserve; 65531 and 65535 are
	// unbound. A mapping is always taken from the reserve before a port
	// is, so ask the allocator directly: it must skip the reserved ports.
	_ = b.Close()
	box.mu.Lock()
	p1, ok1 := box.takePortLocked()
	p2, ok2 := box.takePortLocked()
	box.mu.Unlock()
	if !ok1 || !ok2 || p1 != 65531 || p2 != 65535 {
		t.Errorf("with 65532–65534 reserved, took %d, %d (%v, %v); want 65531, 65535", p1, p2, ok1, ok2)
	}
}

// TestReservedMappingFiltersByNewOwner: a datagram to an idle reserved
// port reaches no one; once another socket reuses the port, the
// restricted and symmetric boxes filter the previous owner's peer by
// the new owner's send history, and a full-cone box admits it, as it
// admits anyone.
func TestReservedMappingFiltersByNewOwner(t *testing.T) {
	for _, typ := range Types {
		r := newRig(t, typ)
		oldPeer, _ := r.public(t, "old:1")
		_, toNew := r.public(t, "new:1")
		var gotA, gotB []string
		a, _ := r.box.ListenPacket("10.0.0.2:5000", func(from transport.Addr, data []byte) {
			gotA = append(gotA, string(from)+"/"+string(data))
		})
		b, _ := r.box.ListenPacket("10.0.0.3:5000", func(from transport.Addr, data []byte) {
			gotB = append(gotB, string(from)+"/"+string(data))
		})
		r.clk.RunTask(func() {
			_ = a.WriteTo("old:1", []byte("a"))
			r.clk.Sleep(10 * time.Millisecond)
			_ = a.Close() // 1.2.3.4:40000 goes to the reserve
			_ = oldPeer.WriteTo("1.2.3.4:40000", []byte("idle"))
			r.clk.Sleep(10 * time.Millisecond)
			_ = b.WriteTo("new:1", []byte("b")) // reuses 1.2.3.4:40000
			r.clk.Sleep(10 * time.Millisecond)
			_ = oldPeer.WriteTo("1.2.3.4:40000", []byte("stale"))
			r.clk.Sleep(10 * time.Millisecond)
		})
		if len(gotA) != 0 {
			t.Errorf("%v: the closed socket received %v", typ, gotA)
		}
		if len(*toNew) != 1 || (*toNew)[0] != "1.2.3.4:40000/b" {
			t.Errorf("%v: new peer saw %v, want [1.2.3.4:40000/b]: the reserved port was not reused", typ, *toNew)
		}
		var want []string
		if typ == FullCone {
			want = []string{"old:1/stale"}
		}
		if fmt.Sprint(gotB) != fmt.Sprint(want) {
			t.Errorf("%v: the reusing socket received %v, want %v", typ, gotB, want)
		}
	}
}

// TestReserveStaysBounded: after any sequence of sends and closes over
// a few private sockets, a box holds at most maxFreeMappings idle
// external sockets, every other bound one belongs to an open socket,
// and Box.Close unbinds them all.
func TestReserveStaysBounded(t *testing.T) {
	for _, typ := range Types {
		o := &stubOuter{}
		box := New(typ, o, "1.2.3.4", 40000)
		rng := uint32(7)
		next := func(n int) int { rng = rng*1664525 + 1013904223; return int(rng>>16) % n }
		var socks [4]transport.PacketConn
		for step := range 2000 {
			i := next(len(socks))
			switch {
			case socks[i] == nil:
				c, err := box.ListenPacket("10.0.0.2:1", func(transport.Addr, []byte) {})
				if err != nil {
					t.Fatal(err)
				}
				socks[i] = c
			case next(3) == 0:
				_ = socks[i].Close()
				socks[i] = nil
			default:
				if err := socks[i].WriteTo(transport.Addr("d"+strconv.Itoa(next(5))+":1"), nil); err != nil {
					t.Fatal(err)
				}
			}
			box.mu.Lock()
			idle := box.reserve.Len()
			box.mu.Unlock()
			if live := len(box.Mappings()); idle > maxFreeMappings || o.open != live+idle {
				t.Fatalf("%v step %d: %d bound, %d live, %d idle (at most %d)", typ, step, o.open, live, idle, maxFreeMappings)
			}
		}
		_ = box.Close()
		if o.open != 0 {
			t.Errorf("%v: %d external sockets bound after Box.Close", typ, o.open)
		}
	}
}

// handOuter is a goroutine-safe outer network that keeps each bound
// socket's handler, so a test can deliver a datagram to whatever holds
// an address at that moment.
type handOuter struct {
	mu sync.Mutex
	h  map[transport.Addr]transport.PacketHandler
}

type handConn struct {
	o    *handOuter
	addr transport.Addr
}

func (o *handOuter) ListenPacket(addr transport.Addr, h transport.PacketHandler) (transport.PacketConn, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.h[addr] != nil {
		return nil, fmt.Errorf("hand: %s already bound", addr)
	}
	o.h[addr] = h
	return &handConn{o: o, addr: addr}, nil
}

func (o *handOuter) deliver(to, from transport.Addr, data []byte) {
	o.mu.Lock()
	h := o.h[to]
	o.mu.Unlock()
	if h != nil {
		h(from, data)
	}
}

func (c *handConn) WriteTo(transport.Addr, []byte) error { return nil }
func (c *handConn) LocalAddr() transport.Addr            { return c.addr }
func (c *handConn) Close() error {
	c.o.mu.Lock()
	delete(c.o.h, c.addr)
	c.o.mu.Unlock()
	return nil
}

// TestReserveConcurrentChurn: sockets on several goroutines send to
// their own peer and close, over and over, while every peer keeps
// sending to the box's first ports. A bound socket passes from owner to
// owner through the reserve, and a restricted box must still deliver to
// each socket only what its own peer sent.
func TestReserveConcurrentChurn(t *testing.T) {
	const workers, rounds, ports = 4, 200, 8
	for _, typ := range Types {
		o := &handOuter{h: map[transport.Addr]transport.PacketHandler{}}
		box := New(typ, o, "1.2.3.4", 40000)
		var strays atomic.Int64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(workers)
		for w := range workers {
			peer := transport.Addr("peer" + strconv.Itoa(w) + ":1")
			go func() {
				defer wg.Done()
				for range rounds {
					c, err := box.ListenPacket("10.0.0.2:1", func(from transport.Addr, _ []byte) {
						if from != peer {
							strays.Add(1)
						}
					})
					if err != nil {
						t.Error(err)
						return
					}
					_ = c.WriteTo(peer, nil)
					_ = c.Close()
				}
			}()
		}
		var senders sync.WaitGroup
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				to := transport.Addr("1.2.3.4:" + strconv.Itoa(40000+i%ports))
				o.deliver(to, transport.Addr("peer"+strconv.Itoa(i%workers)+":1"), nil)
			}
		}()
		wg.Wait()
		close(stop)
		senders.Wait()
		if n := strays.Load(); typ != FullCone && n > 0 {
			t.Errorf("%v: %d datagrams reached a socket that never sent to their source", typ, n)
		}
		_ = box.Close()
		o.mu.Lock()
		if n := len(o.h); n != 0 {
			t.Errorf("%v: %d external sockets bound after Box.Close", typ, n)
		}
		o.mu.Unlock()
	}
}
