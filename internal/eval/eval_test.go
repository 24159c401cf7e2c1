package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"asap/internal/cluster"
	"asap/internal/core"
	"asap/internal/netmodel"
)

func buildTiny(t testing.TB) *World {
	t.Helper()
	w, err := BuildWorld(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "paper"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ProfileByName(%q) = %+v, %v", name, p, err)
		}
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Error("unknown profile should fail")
	}
}

// tinyWorldDigest is worldDigest of BuildWorld(Tiny). The core, skype,
// baseline and overlay tests build their worlds with BuildWorld, so a
// change to what the pipeline draws moves this pin before it moves any
// of theirs.
const tinyWorldDigest = "053b404efc7e784853ab2082c41a99eec33c3d5b7a8e4242f203d5c3a264e6ae"

func TestBuildWorldDeterministic(t *testing.T) {
	w1 := buildTiny(t)
	w2 := buildTiny(t)
	if w1.Pop.NumHosts() != w2.Pop.NumHosts() || w1.Pop.NumClusters() != w2.Pop.NumClusters() {
		t.Fatal("same profile produced different worlds")
	}
	s1 := w1.RandomSessions(50)
	s2 := w2.RandomSessions(50)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same profile produced different sessions")
		}
	}
	if got := worldDigest(buildTiny(t)); got != tinyWorldDigest {
		t.Errorf("tiny world digest = %s, want %s", got, tinyWorldDigest)
	}
}

// worldDigest hashes every stage of w: the edge list, the prefix
// allocation, every host's address and cluster, ClusterRTT over a fixed
// sample of cluster pairs, and the next 8 draws of w.RNG (which it
// consumes).
func worldDigest(w *World) string {
	h := sha256.New()
	for _, asn := range w.Graph.ASNs() {
		fmt.Fprintf(h, "as %d:", asn)
		for _, e := range w.Graph.Edges(asn) {
			fmt.Fprintf(h, " %d/%d", e.To, e.Rel)
		}
		fmt.Fprintln(h)
	}
	for i, p := range w.Alloc.Prefixes {
		fmt.Fprintf(h, "prefix %s %d\n", p, w.Alloc.Origin[i])
	}
	for id := 0; id < w.Pop.NumHosts(); id++ {
		host := w.Pop.Host(cluster.HostID(id))
		fmt.Fprintf(h, "host %d %s %d\n", id, host.Addr, host.Cluster)
	}
	n := w.Pop.NumClusters()
	for i := 0; i < n; i += 3 {
		a, b := cluster.ClusterID(i), cluster.ClusterID((i*31+7)%n)
		rtt, ok := w.Model.ClusterRTT(a, b)
		fmt.Fprintf(h, "rtt %d %d %d %v\n", a, b, rtt, ok)
	}
	for range 8 {
		fmt.Fprintf(h, "draw %d\n", w.RNG.Int63())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestRandomSessionsDistinctClusters(t *testing.T) {
	w := buildTiny(t)
	for _, s := range w.RandomSessions(200) {
		if w.Pop.Host(s.A).Cluster == w.Pop.Host(s.B).Cluster {
			t.Fatal("session endpoints share a cluster")
		}
	}
}

func TestLatentSessionFractionCalibration(t *testing.T) {
	// Section 7.1: ~1,000 of 100,000 sessions (0.3%..5% acceptable band
	// here) must exceed 300 ms so the headline experiments have a
	// population to work on.
	w := buildTiny(t)
	sessions := w.RandomSessions(Tiny.Sessions)
	latent := w.LatentSessions(sessions, netmodel.QualityRTT)
	frac := float64(len(latent)) / float64(len(sessions))
	if frac < 0.001 || frac > 0.2 {
		t.Errorf("latent fraction = %.4f, want in [0.001, 0.2] (paper ~0.01)", frac)
	}
}

func TestRoutingStudyShapes(t *testing.T) {
	w := buildTiny(t)
	sessions := w.RandomSessions(300)
	st := RunRoutingStudy(w, sessions, 60, netmodel.QualityRTT, 0, 0)
	if len(st.DirectMs) < 250 {
		t.Fatalf("only %d direct measurements", len(st.DirectMs))
	}
	if len(st.PairDirectMs) != len(st.PairOptMs) {
		t.Fatal("pair series lengths differ")
	}
	if len(st.PairDirectMs) == 0 {
		t.Fatal("no pair measurements")
	}
	for _, r := range st.ReductionRates {
		if r <= 0 || r >= 1 {
			t.Fatalf("reduction rate %v out of (0,1)", r)
		}
	}
	for i := range st.LatentOptMs {
		if st.LatentDirectMs[i] <= 300 {
			t.Fatal("non-latent session in latent series")
		}
	}
	// Formatting must not panic and must mention the figure names.
	for _, s := range []string{
		st.FormatFig2a(), st.FormatFig2b(), st.FormatFig3a(),
		st.FormatFig3b(netmodel.QualityRTT),
	} {
		if !strings.Contains(s, "Figure") {
			t.Errorf("missing caption in %q", s)
		}
	}
}

func TestComparisonEndToEnd(t *testing.T) {
	w := buildTiny(t)
	sessions := w.RandomSessions(Tiny.Sessions)
	latent := w.LatentSessions(sessions, netmodel.QualityRTT)
	if len(latent) < 3 {
		t.Skip("too few latent sessions in tiny world")
	}
	if len(latent) > 25 {
		latent = latent[:25]
	}

	sys, err := w.NewASAP(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d, r, m, err := w.NewBaselines(20, 50, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	methods := []Method{
		NewBaselineMethod(d, w.Engine),
		NewBaselineMethod(r, w.Engine),
		NewBaselineMethod(m, w.Engine),
		NewASAPMethod(sys, w.Engine),
		NewOPTMethod(w.Engine),
	}
	c := RunComparison(methods, latent, Tiny.Seed, 0)
	if len(c.Order) != 5 {
		t.Fatalf("ran %d methods", len(c.Order))
	}
	for _, name := range []string{"DEDI", "RAND", "MIX", "ASAP", "OPT"} {
		if len(c.Outcomes[name]) == 0 {
			t.Fatalf("method %s produced no outcomes", name)
		}
	}

	// Core claims, at reduced scale:
	// ASAP finds far more quality paths than fixed-probe baselines...
	asapQP := meanOf(c.QualityPathSeries("ASAP"))
	for _, base := range []string{"DEDI", "RAND", "MIX"} {
		bq := meanOf(c.QualityPathSeries(base))
		if asapQP <= bq {
			t.Errorf("ASAP mean quality paths %.1f <= %s %.1f", asapQP, base, bq)
		}
	}
	// ...and OPT's shortest RTT lower-bounds everyone on common sessions.
	optRTT := c.ShortestRTTSeries("OPT")
	if len(optRTT) == 0 {
		t.Fatal("OPT found nothing")
	}

	// Formatting.
	for _, s := range []string{
		c.FormatFig11and12(), c.FormatFig13and14(), c.FormatFig15and16(), c.FormatFig18(),
	} {
		if !strings.Contains(s, "Figure") {
			t.Errorf("missing caption in %q", s)
		}
	}
}

func TestASAPOverheadBounded(t *testing.T) {
	w := buildTiny(t)
	sys, err := w.NewASAP(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sessions := w.RandomSessions(30)
	am := NewASAPMethod(sys, w.Engine)
	for _, s := range sessions {
		o, err := am.Run(s, nil)
		if err != nil {
			continue
		}
		if o.Messages < 4 {
			t.Errorf("ASAP session below minimum messages: %d", o.Messages)
		}
	}
}

func TestScalabilityRun(t *testing.T) {
	w := buildTiny(t)
	big, err := BuildWorld(Profile{Name: "tiny2x", ASes: Tiny.ASes, Hosts: Tiny.Hosts * 2, Sessions: Tiny.Sessions, Seed: Tiny.Seed})
	if err != nil {
		t.Fatal(err)
	}
	run := func(world *World, n int) *Comparison {
		sys, err := world.NewASAP(core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		d, r, m, err := world.NewBaselines(10, 20, 5, 15)
		if err != nil {
			t.Fatal(err)
		}
		sessions := world.LatentSessions(world.RandomSessions(world.Profile.Sessions), netmodel.QualityRTT)
		if len(sessions) > n {
			sessions = sessions[:n]
		}
		return RunComparison([]Method{
			NewBaselineMethod(d, world.Engine),
			NewBaselineMethod(r, world.Engine),
			NewBaselineMethod(m, world.Engine),
			NewASAPMethod(sys, world.Engine),
		}, sessions, world.Profile.Seed, 0)
	}
	base := run(w, 10)
	scaled := run(big, 10)
	if len(base.Sessions) == 0 || len(scaled.Sessions) == 0 {
		t.Skip("no latent sessions at tiny scale")
	}
	sc := RunScalability(base, scaled, 2.0)
	if len(sc.Order) != 4 {
		t.Fatalf("scalability covers %d methods", len(sc.Order))
	}
	if !strings.Contains(sc.Format(), "Figure 17") {
		t.Error("missing Figure 17 caption")
	}
}

func TestCalibrateK(t *testing.T) {
	w := buildTiny(t)
	sessions := w.RandomSessions(500)
	k := w.CalibrateK(sessions, netmodel.QualityRTT, 0.9, 0)
	if k < 1 || k > 10 {
		t.Fatalf("calibrated K = %d, want a plausible small bound", k)
	}
	// The quantile rule: at least 90% of sub-threshold sessions must be
	// within K policy hops.
	within, total := 0, 0
	for _, s := range sessions {
		rtt, ok := w.DirectRTT(s)
		if !ok || rtt >= netmodel.QualityRTT {
			continue
		}
		h, ok := w.Model.ASPathHops(w.Pop.Host(s.A).AS, w.Pop.Host(s.B).AS)
		if !ok {
			continue
		}
		total++
		if h <= k {
			within++
		}
	}
	if total == 0 {
		t.Skip("no fast sessions")
	}
	if frac := float64(within) / float64(total); frac < 0.89 {
		t.Errorf("only %.2f of fast sessions within K=%d hops", frac, k)
	}
	// A stricter quantile can only raise K.
	if k99 := w.CalibrateK(sessions, netmodel.QualityRTT, 0.99, 0); k99 < k {
		t.Errorf("K(0.99)=%d < K(0.9)=%d", k99, k)
	}
}

func TestScaledCopySharesNetwork(t *testing.T) {
	w := buildTiny(t)
	sc, err := w.ScaledCopy(2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Graph != w.Graph || sc.Alloc != w.Alloc || sc.Router != w.Router {
		t.Error("scaled copy must share topology, allocation and router")
	}
	if sc.Pop == w.Pop {
		t.Error("scaled copy must have its own population")
	}
	if got, want := sc.Pop.NumHosts(), 2*w.Profile.Hosts; got < want*9/10 || got > want*11/10 {
		t.Errorf("scaled hosts = %d, want ~%d", got, want)
	}
	// Conditions shared: congested AS sets identical.
	a := w.Model.CongestedASes()
	b := sc.Model.CongestedASes()
	if len(a) != len(b) {
		t.Errorf("condition sets differ: %d vs %d", len(a), len(b))
	}
	if _, err := w.ScaledCopy(0); err == nil {
		t.Error("ratio 0 should fail")
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func TestOutcomeShortestRTTms(t *testing.T) {
	o := Outcome{ShortestRTT: 250 * time.Millisecond}
	if o.ShortestRTTms() != 250 {
		t.Errorf("ShortestRTTms = %v", o.ShortestRTTms())
	}
	inf := Outcome{ShortestRTT: noPath}
	if v := inf.ShortestRTTms(); v == v && !(v > 1e18) { // IsInf without math import
		t.Errorf("noPath should map to +Inf, got %v", v)
	}
}
