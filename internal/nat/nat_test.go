package nat

import (
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
