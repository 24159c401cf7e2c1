package bgp

import (
	"fmt"
	"testing"

	"asap/internal/asgraph"
	"asap/internal/sim"
)

// Walk visits every route in the trie in address order.
func (t *Trie) Walk(fn func(Prefix, asgraph.ASN) bool) {
	var rec func(n *trieNode) bool
	rec = func(n *trieNode) bool {
		if n == nil {
			return true
		}
		if n.set && !fn(n.prefix, n.origin) {
			return false
		}
		if !rec(n.child[0]) {
			return false
		}
		return rec(n.child[1])
	}
	rec(t.root)
}

func TestAddrRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.1.2.3", "255.255.255.255", "192.168.0.1"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "-1.0.0.0"}
	for _, s := range bad {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) should fail", s)
		}
	}
}

// TestParseAddrGrammar pins the dotted-quad grammar: four octets of one
// to three ASCII digits, each at most 255. Signs and over-long octets
// are refused with the same error as any other bad address; leading
// zeros are decimal.
func TestParseAddrGrammar(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xFFFFFFFF, true},
		{"010.0.0.1", 10<<24 | 1, true},
		{"000.001.099.255", 1<<16 | 99<<8 | 255, true},
		{"+10.-0.0.1", 0, false},
		{"00000000000000000001.2.3.4", 0, false},
		{"0001.2.3.4", 0, false},
		{"1.2.3.+4", 0, false},
		{"1.2.3.4.", 0, false},
		{".1.2.3", 0, false},
		{"1..2.3", 0, false},
		{"1.2.3.4 ", 0, false},
		{"1.2.3.256", 0, false},
		{"999.0.0.0", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if !c.ok {
			want := fmt.Sprintf("bgp: invalid address %q", c.in)
			if err == nil || err.Error() != want {
				t.Errorf("ParseAddr(%q) = %v, %v; want error %q", c.in, got, err, want)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// TestStringMatchesFmt pins Addr.String and Prefix.String byte for byte
// against fmt's rendering of the same fields, on three fixed prefixes
// and a generated sample.
func TestStringMatchesFmt(t *testing.T) {
	oldAddr := func(a Addr) string {
		return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	oldPrefix := func(p Prefix) string { return fmt.Sprintf("%s/%d", oldAddr(p.Addr), p.Len) }
	for _, c := range []struct {
		p    Prefix
		want string
	}{
		{MakePrefix(0, 0), "0.0.0.0/0"},
		{MakePrefix(10<<24|30<<16, 16), "10.30.0.0/16"},
		{MakePrefix(0xFFFFFFFF, 32), "255.255.255.255/32"},
	} {
		if got := c.p.String(); got != c.want || got != oldPrefix(c.p) {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	rng := sim.NewRNG(42)
	for i := 0; i < 2000; i++ {
		a := Addr(rng.Int63())
		if got, want := a.String(), oldAddr(a); got != want {
			t.Errorf("Addr.String() = %q, want %q", got, want)
		}
		p := MakePrefix(a, uint8(rng.Intn(33)))
		if got, want := p.String(), oldPrefix(p); got != want {
			t.Errorf("Prefix.String() = %q, want %q", got, want)
		}
	}
}

func TestPrefixParseAndContains(t *testing.T) {
	p, err := ParsePrefix("10.1.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	in, _ := ParseAddr("10.1.200.3")
	out, _ := ParseAddr("10.2.0.1")
	if !p.Contains(in) {
		t.Errorf("%s should contain %s", p, in)
	}
	if p.Contains(out) {
		t.Errorf("%s should not contain %s", p, out)
	}
	// Host bits must be masked.
	p2, _ := ParsePrefix("10.1.2.3/16")
	if p2 != p {
		t.Errorf("host bits not masked: %v vs %v", p2, p)
	}
	if p.NumAddrs() != 65536 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	if got := p.Nth(5).String(); got != "10.1.0.5" {
		t.Errorf("Nth(5) = %s", got)
	}
	for _, s := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/x",
		"10.0.0.0/+8", "10.0.0.0/-0", "10.0.0.0/008", "10.0.0.0/", "10.0.0.0/8/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", s)
		}
	}
	if p8, err := ParsePrefix("10.0.0.0/08"); err != nil || p8 != MakePrefix(10<<24, 8) {
		t.Errorf("ParsePrefix(\"10.0.0.0/08\") = %v, %v", p8, err)
	}
}

func TestPrefixNthPanicsOutOfRange(t *testing.T) {
	p, _ := ParsePrefix("10.0.0.0/30")
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range did not panic")
		}
	}()
	p.Nth(4)
}

func TestTrieLongestPrefixMatch(t *testing.T) {
	var tr Trie
	p8, _ := ParsePrefix("10.0.0.0/8")
	p16, _ := ParsePrefix("10.1.0.0/16")
	p24, _ := ParsePrefix("10.1.2.0/24")
	tr.Insert(p8, 100)
	tr.Insert(p16, 200)
	tr.Insert(p24, 300)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	cases := []struct {
		addr string
		want asgraph.ASN
	}{
		{"10.1.2.3", 300},
		{"10.1.3.1", 200},
		{"10.9.9.9", 100},
	}
	for _, c := range cases {
		a, _ := ParseAddr(c.addr)
		_, origin, ok := tr.Lookup(a)
		if !ok || origin != c.want {
			t.Errorf("Lookup(%s) = %d,%v, want %d", c.addr, origin, ok, c.want)
		}
	}
	a, _ := ParseAddr("11.0.0.1")
	if _, _, ok := tr.Lookup(a); ok {
		t.Error("Lookup outside all prefixes should miss")
	}
}

func TestTrieReplaceKeepsSize(t *testing.T) {
	var tr Trie
	p, _ := ParsePrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Errorf("Len after replace = %d, want 1", tr.Len())
	}
	_, origin, _ := tr.Lookup(p.Addr)
	if origin != 2 {
		t.Errorf("origin = %d, want 2", origin)
	}
}

func TestTrieWalkOrder(t *testing.T) {
	var tr Trie
	for _, s := range []string{"10.2.0.0/16", "10.0.0.0/16", "10.1.0.0/16"} {
		p, _ := ParsePrefix(s)
		tr.Insert(p, 1)
	}
	var seen []Prefix
	tr.Walk(func(p Prefix, _ asgraph.ASN) bool {
		seen = append(seen, p)
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("walked %d", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Addr <= seen[i-1].Addr {
			t.Errorf("walk out of order: %v", seen)
		}
	}
	// Early termination.
	n := 0
	tr.Walk(func(Prefix, asgraph.ASN) bool { n++; return false })
	if n != 1 {
		t.Errorf("walk did not stop: %d", n)
	}
}

// Property: for random prefix sets, Lookup always returns a prefix that
// contains the queried address, and it is the longest such.
func TestTrieLPMProperty(t *testing.T) {
	rng := sim.NewRNG(8)
	check := func(seed int64) bool {
		r := sim.NewRNG(seed)
		var tr Trie
		prefixes := make([]Prefix, 0, 20)
		for i := 0; i < 20; i++ {
			length := uint8(8 + r.Intn(17))
			p := MakePrefix(Addr(r.Int63()), length)
			tr.Insert(p, asgraph.ASN(i+1))
			prefixes = append(prefixes, p)
		}
		for i := 0; i < 50; i++ {
			a := Addr(r.Int63())
			got, _, ok := tr.Lookup(a)
			var wantLen int16 = -1
			for _, p := range prefixes {
				if p.Contains(a) && int16(p.Len) > wantLen {
					wantLen = int16(p.Len)
				}
			}
			if !ok {
				if wantLen >= 0 {
					return false
				}
				continue
			}
			if !got.Contains(a) || int16(got.Len) != wantLen {
				return false
			}
		}
		return true
	}
	for i := 0; i < 30; i++ {
		if !check(rng.Int63()) {
			t.Fatal("LPM property violated")
		}
	}
}

func TestAllocate(t *testing.T) {
	rng := sim.NewRNG(10)
	g, err := asgraph.Generate(asgraph.DefaultGenConfig(300), rng)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Allocate(g, DefaultAllocConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.NumPrefixes() < g.NumNodes() {
		t.Fatalf("prefixes %d < ASes %d: every AS needs one", alloc.NumPrefixes(), g.NumNodes())
	}
	// No overlap: prefixes are in address order, so checking neighbours
	// suffices.
	for i := 1; i < len(alloc.Prefixes); i++ {
		if p, q := alloc.Prefixes[i-1], alloc.Prefixes[i]; p.Contains(q.Addr) || q.Contains(p.Addr) {
			t.Fatalf("overlapping prefixes %s %s", p, q)
		}
	}
	// Every AS covered.
	covered := make(map[asgraph.ASN]bool, g.NumNodes())
	for _, asn := range alloc.Origin {
		covered[asn] = true
	}
	for _, asn := range g.ASNs() {
		if !covered[asn] {
			t.Fatalf("AS%d has no prefix", asn)
		}
	}
	// Trie round trip.
	var tr Trie
	for i, p := range alloc.Prefixes {
		tr.Insert(p, alloc.Origin[i])
	}
	for i, p := range alloc.Prefixes {
		_, origin, ok := tr.Lookup(p.Nth(0))
		if !ok || origin != alloc.Origin[i] {
			t.Fatalf("trie lookup of %s = %d,%v, want %d", p, origin, ok, alloc.Origin[i])
		}
	}
	origins := map[asgraph.ASN]bool{}
	for _, asn := range alloc.Origin {
		origins[asn] = true
	}
	if len(origins) != g.NumNodes() {
		t.Errorf("%d ASes originate a prefix, want %d", len(origins), g.NumNodes())
	}
}

func TestAllocateValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	g, _ := asgraph.Generate(asgraph.DefaultGenConfig(50), rng)
	bad := []AllocConfig{
		{PrefixesPerStub: 1, PrefixesPerTransit: 1, MinLen: 4, MaxLen: 24},
		{PrefixesPerStub: 1, PrefixesPerTransit: 1, MinLen: 24, MaxLen: 16},
		{PrefixesPerStub: 0, PrefixesPerTransit: 1, MinLen: 16, MaxLen: 24},
	}
	for i, cfg := range bad {
		if _, err := Allocate(g, cfg, rng); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSynthesizeRIBAndOriginTable(t *testing.T) {
	rng := sim.NewRNG(12)
	g, err := asgraph.Generate(asgraph.DefaultGenConfig(200), rng)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Allocate(g, DefaultAllocConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	r := asgraph.NewRouter(g, 64)
	asns := g.ASNs()
	vantages := []asgraph.ASN{asns[0], asns[len(asns)/2]}
	rib := SynthesizeRIB(r, alloc, vantages)
	if len(rib) == 0 {
		t.Fatal("empty RIB")
	}
	for _, e := range rib {
		if len(e.Path) == 0 {
			t.Fatal("entry without path")
		}
		if e.Path[0] != vantages[0] && e.Path[0] != vantages[1] {
			t.Fatalf("path does not start at a vantage: %v", e.Path)
		}
	}

	// Every entry's path ends at the prefix's allocated origin, and the
	// two vantages together see nearly every prefix.
	originOf := make(map[Prefix]asgraph.ASN, len(alloc.Prefixes))
	for i, p := range alloc.Prefixes {
		originOf[p] = alloc.Origin[i]
	}
	seen := make(map[Prefix]bool, len(alloc.Prefixes))
	for _, e := range rib {
		if got, want := e.Path[len(e.Path)-1], originOf[e.Prefix]; got != want {
			t.Fatalf("RIB entry for %s ends at AS%d, want its origin AS%d", e.Prefix, got, want)
		}
		seen[e.Prefix] = true
	}
	if frac := float64(len(seen)) / float64(len(alloc.Prefixes)); frac < 0.9 {
		t.Errorf("RIB covers only %.2f of prefixes", frac)
	}

	if got := Paths(rib); len(got) == 0 {
		t.Error("Paths should extract multi-hop entries")
	}
}
