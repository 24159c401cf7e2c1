package overlay

import (
	"testing"
	"time"
)

func TestCombineLossNeverExceedsOne(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{0.5, 0.5, 0.75},
		{0.01, 0.01, 0.0199},
	}
	for _, c := range cases {
		got := combineLoss(c.a, c.b)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("combineLoss(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPathQualityAndMOS(t *testing.T) {
	p := Path{Kind: KindDirect, RTT: 200 * time.Millisecond, Loss: 0.005}
	if !p.Quality() {
		t.Error("200ms should be a quality path")
	}
	slow := Path{Kind: KindDirect, RTT: 400 * time.Millisecond}
	if slow.Quality() {
		t.Error("400ms should not be a quality path")
	}
	if m1, m2 := p.MOS(-1), p.MOS(0.005); m1 != m2 {
		t.Errorf("loss override mismatch: %v vs %v", m1, m2)
	}
	if p.MOS(0.10) >= p.MOS(0.001) {
		t.Error("higher loss must not raise MOS")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindDirect: "direct", KindOneHop: "1-hop", KindTwoHop: "2-hop", Kind(9): "unknown",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
