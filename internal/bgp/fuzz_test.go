package bgp

import "testing"

// FuzzParseAddr checks ParseAddr against String in both directions: an
// accepted input is digits and dots only, fits a dotted quad and parses
// back from its String to the same address; the String of any address
// parses back to it.
func FuzzParseAddr(f *testing.F) {
	for _, s := range []string{
		"+10.-0.0.1", "00000000000000000001.2.3.4", "010.0.0.1",
		"0.0.0.0", "255.255.255.255", "256.0.0.1", "1.2.3", "1.2.3.4.5", "",
	} {
		f.Add(s, uint32(0x0A1E0001))
	}
	f.Fuzz(func(t *testing.T, s string, raw uint32) {
		if a, err := ParseAddr(s); err == nil {
			if len(s) > len("255.255.255.255") {
				t.Fatalf("ParseAddr accepted %d bytes: %q", len(s), s)
			}
			for i := 0; i < len(s); i++ {
				if c := s[i]; c != '.' && (c < '0' || c > '9') {
					t.Fatalf("ParseAddr accepted byte %q in %q", c, s)
				}
			}
			if b, err := ParseAddr(a.String()); err != nil || b != a {
				t.Fatalf("ParseAddr(%q) = %v, but ParseAddr(%q) = %v, %v", s, a, a.String(), b, err)
			}
		}
		a := Addr(raw)
		if b, err := ParseAddr(a.String()); err != nil || b != a {
			t.Fatalf("ParseAddr(%q) = %v, %v; want %v", a.String(), b, err, a)
		}
	})
}

// FuzzParsePrefix does the same for CIDR notation: an accepted prefix
// parses back from its String to itself, and the String of any prefix
// MakePrefix can build parses back to it.
func FuzzParsePrefix(f *testing.F) {
	for _, s := range []string{
		"+10.-0.0.1/8", "00000000000000000001.2.3.4/32", "10.30.0.0/16",
		"0.0.0.0/0", "255.255.255.255/32", "10.1.2.3/16", "10.0.0.0/+8", "10.0.0.0/33", "10.0.0.0",
	} {
		f.Add(s, uint32(0x0A1E0001), uint8(16))
	}
	f.Fuzz(func(t *testing.T, s string, raw uint32, length uint8) {
		if p, err := ParsePrefix(s); err == nil {
			if q, err := ParsePrefix(p.String()); err != nil || q != p {
				t.Fatalf("ParsePrefix(%q) = %v, but ParsePrefix(%q) = %v, %v", s, p, p.String(), q, err)
			}
		}
		p := MakePrefix(Addr(raw), length%33)
		if q, err := ParsePrefix(p.String()); err != nil || q != p {
			t.Fatalf("ParsePrefix(%q) = %v, %v; want %v", p.String(), q, err, p)
		}
	})
}
