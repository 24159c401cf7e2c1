// Package bgp models the pieces of BGP the paper's measurement pipeline
// consumes: IPv4 prefixes, a radix trie for longest-prefix matching, a
// synthetic prefix allocation to ASes, and RIB (routing table) synthesis
// from vantage points. ASAP's bootstrap builds its IP-prefix -> origin-AS
// mapping table (Section 6.1) once, as a Trie over its configured
// prefixes; cmd/asgen feeds synthesized RIB paths to Gao's inference.
package bgp

import (
	"fmt"
	"strconv"
	"strings"

	"asap/internal/asgraph"
)

// Addr is an IPv4 address in host byte order. A bare uint32 keeps the hot
// clustering paths allocation-free; the netip-based formatting conveniences
// are provided for boundaries.
type Addr uint32

// String renders the address in dotted quad form.
func (a Addr) String() string {
	var buf [len("255.255.255.255")]byte
	return string(a.appendTo(buf[:0]))
}

// appendTo appends the dotted quad to b.
func (a Addr) appendTo(b []byte) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		if shift < 24 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(byte(a>>shift)), 10)
	}
	return b
}

// ParseAddr parses a dotted-quad IPv4 address: exactly four octets, each
// one to three ASCII digits with a value of at most 255. Leading zeros
// are decimal ("010" is 10); signs are not accepted.
func ParseAddr(s string) (Addr, error) {
	var a uint32
	i := 0
	for octet := 0; octet < 4; octet++ {
		if octet > 0 {
			if i == len(s) || s[i] != '.' {
				return 0, fmt.Errorf("bgp: invalid address %q", s)
			}
			i++
		}
		v, n := parseDecimal(s[i:], 3)
		if n == 0 || v > 255 {
			return 0, fmt.Errorf("bgp: invalid address %q", s)
		}
		a = a<<8 | v
		i += n
	}
	if i != len(s) {
		return 0, fmt.Errorf("bgp: invalid address %q", s)
	}
	return Addr(a), nil
}

// parseDecimal reads the run of ASCII digits that starts s and returns
// its value and length; n is 0 when s does not start with a digit or the
// run is longer than maxDigits.
func parseDecimal(s string, maxDigits int) (v uint32, n int) {
	for n < len(s) && '0' <= s[n] && s[n] <= '9' {
		if n == maxDigits {
			return 0, 0
		}
		v = v*10 + uint32(s[n]-'0')
		n++
	}
	return v, n
}

// Prefix is an IPv4 CIDR block.
type Prefix struct {
	Addr Addr
	// Len is the prefix length in [0, 32].
	Len uint8
}

// ParsePrefix parses "a.b.c.d/len" CIDR notation, masking host bits.
// The address follows ParseAddr's grammar; the length is one or two
// ASCII digits with a value of at most 32.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("bgp: invalid prefix %q", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	l, n := parseDecimal(s[slash+1:], 2)
	if n == 0 || slash+1+n != len(s) || l > 32 {
		return Prefix{}, fmt.Errorf("bgp: invalid prefix length in %q", s)
	}
	return MakePrefix(addr, uint8(l)), nil
}

// MakePrefix returns the prefix with host bits masked off.
func MakePrefix(addr Addr, length uint8) Prefix {
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: addr & mask(length), Len: length}
}

func mask(length uint8) Addr {
	if length == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - length))
}

// String renders CIDR notation.
func (p Prefix) String() string {
	var buf [len("255.255.255.255/255")]byte
	b := append(p.Addr.appendTo(buf[:0]), '/')
	return string(strconv.AppendUint(b, uint64(p.Len), 10))
}

// Contains reports whether a falls inside p.
func (p Prefix) Contains(a Addr) bool {
	return a&mask(p.Len) == p.Addr
}

// NumAddrs returns the number of addresses covered by p.
func (p Prefix) NumAddrs() uint64 {
	return 1 << (32 - p.Len)
}

// Nth returns the i-th address inside p (0-based, wrapping is the
// caller's bug and panics).
func (p Prefix) Nth(i uint32) Addr {
	if uint64(i) >= p.NumAddrs() {
		panic(fmt.Sprintf("bgp: address index %d out of %s", i, p))
	}
	return p.Addr + Addr(i)
}

// Trie is a binary radix trie mapping prefixes to origin ASes, supporting
// longest-prefix-match lookup — the operation behind the paper's "group
// IPs with the same longest matched prefix into one cluster". The zero
// value is an empty trie. Trie is not safe for concurrent mutation.
type Trie struct {
	root *trieNode
	size int
}

type trieNode struct {
	child [2]*trieNode
	// set marks a real route entry (as opposed to an internal node).
	set    bool
	prefix Prefix
	origin asgraph.ASN
}

// Insert adds or replaces the route for p.
func (t *Trie) Insert(p Prefix, origin asgraph.ASN) {
	if t.root == nil {
		t.root = &trieNode{}
	}
	n := t.root
	for depth := uint8(0); depth < p.Len; depth++ {
		bit := (uint32(p.Addr) >> (31 - depth)) & 1
		if n.child[bit] == nil {
			n.child[bit] = &trieNode{}
		}
		n = n.child[bit]
	}
	if !n.set {
		t.size++
	}
	n.set = true
	n.prefix = p
	n.origin = origin
}

// Lookup returns the longest matching prefix for a and its origin AS.
func (t *Trie) Lookup(a Addr) (Prefix, asgraph.ASN, bool) {
	n := t.root
	var best *trieNode
	for depth := uint8(0); n != nil; depth++ {
		if n.set {
			best = n
		}
		if depth == 32 {
			break
		}
		bit := (uint32(a) >> (31 - depth)) & 1
		n = n.child[bit]
	}
	if best == nil {
		return Prefix{}, 0, false
	}
	return best.prefix, best.origin, true
}

// Len returns the number of routes in the trie.
func (t *Trie) Len() int { return t.size }

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
