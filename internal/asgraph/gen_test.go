package asgraph

import (
	"testing"

	"asap/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig(500)
	g1, err := Generate(cfg, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d/%d vs %d/%d nodes/edges",
			g1.NumNodes(), g1.NumEdges(), g2.NumNodes(), g2.NumEdges())
	}
	for _, asn := range g1.ASNs() {
		e1, e2 := g1.Edges(asn), g2.Edges(asn)
		if len(e1) != len(e2) {
			t.Fatalf("AS%d adjacency differs", asn)
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("AS%d edge %d differs: %v vs %v", asn, i, e1[i], e2[i])
			}
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	cfg := DefaultGenConfig(1000)
	g, err := Generate(cfg, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	var t1, transit, stub int
	for _, asn := range g.ASNs() {
		switch g.Node(asn).Tier {
		case TierT1:
			t1++
		case TierTransit:
			transit++
		case TierStub:
			stub++
		}
	}
	if t1 != cfg.NumT1 {
		t.Errorf("tier-1 count = %d, want %d", t1, cfg.NumT1)
	}
	if transit != cfg.NumTransit {
		t.Errorf("transit count = %d, want %d", transit, cfg.NumTransit)
	}
	// Sibling generation can add extra stubs beyond NumStub.
	if stub < cfg.NumStub {
		t.Errorf("stub count = %d, want >= %d", stub, cfg.NumStub)
	}

	// Tier-1 clique: every pair of T1 ASes peers.
	t1s := make([]ASN, 0, t1)
	for _, asn := range g.ASNs() {
		if g.Node(asn).Tier == TierT1 {
			t1s = append(t1s, asn)
		}
	}
	for i := 0; i < len(t1s); i++ {
		for j := i + 1; j < len(t1s); j++ {
			rel, ok := g.Rel(t1s[i], t1s[j])
			if !ok || rel != RelP2P {
				t.Fatalf("tier-1 pair %d-%d not peering: %v,%v", t1s[i], t1s[j], rel, ok)
			}
		}
	}

	// Every non-T1 AS must have at least one provider or sibling
	// (no orphans).
	for _, asn := range g.ASNs() {
		if g.Node(asn).Tier == TierT1 {
			continue
		}
		hasUplink := false
		for _, e := range g.Edges(asn) {
			if e.Rel == RelC2P || e.Rel == RelS2S {
				hasUplink = true
				break
			}
		}
		if !hasUplink {
			t.Fatalf("AS%d (%v) has no provider", asn, g.Node(asn).Tier)
		}
	}

	// Multi-homing should appear: a healthy fraction of stubs with >= 2
	// providers (the Fig. 4 shortcut mechanism).
	multi := 0
	for _, asn := range g.ASNs() {
		if g.Node(asn).Tier != TierStub {
			continue
		}
		providers := 0
		for _, e := range g.Edges(asn) {
			if e.Rel == RelC2P {
				providers++
			}
		}
		if providers >= 2 {
			multi++
		}
	}
	if multi < stub/10 {
		t.Errorf("only %d/%d stubs multi-homed; want >= 10%%", multi, stub)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{},
		{NumT1: 0, NumTransit: 5, NumStub: 5},
		{NumT1: 2, NumTransit: 0, NumStub: 5},
		{NumT1: 2, NumTransit: 5, NumStub: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, sim.NewRNG(1)); err == nil {
			t.Errorf("case %d: Generate(%+v) succeeded, want error", i, cfg)
		}
	}
}

func TestDefaultGenConfigScales(t *testing.T) {
	for _, total := range []int{10, 100, 1000, 20955} {
		cfg := DefaultGenConfig(total)
		if err := cfg.Validate(); err != nil {
			t.Errorf("DefaultGenConfig(%d) invalid: %v", total, err)
		}
		sum := cfg.NumT1 + cfg.NumTransit + cfg.NumStub
		if total >= 100 && (sum < total*9/10 || sum > total*11/10) {
			t.Errorf("DefaultGenConfig(%d) totals %d ASes", total, sum)
		}
	}
}
