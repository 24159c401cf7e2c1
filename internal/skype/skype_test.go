package skype

import (
	"strings"
	"testing"
	"time"

	"asap/internal/eval"
)

// buildWorld is eval.BuildWorld at the given size and seed.
func buildWorld(t testing.TB, ases, hosts int, seed int64) *eval.World {
	t.Helper()
	w, err := eval.BuildWorld(eval.Profile{ASes: ases, Hosts: hosts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func newClient(t testing.TB, w *eval.World, cfg Config) *Client {
	t.Helper()
	c, err := NewClient(w.Model, w.Prober, cfg, w.RNG)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.SupernodePool = 0 },
		func(c *Config) { c.InitialBurst = 0 },
		func(c *Config) { c.ProbeInterval = 0 },
		func(c *Config) { c.SwitchMargin = -0.1 },
		func(c *Config) { c.CallDuration = 0 },
		func(c *Config) { c.JitterFrac = 1 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestCallProducesCoherentTrace(t *testing.T) {
	w := buildWorld(t, 250, 2000, 100)
	c := newClient(t, w, DefaultConfig())
	s := w.RandomSessions(1)[0]
	tr, err := c.Call(1, s.A, s.B)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	var probes, packets, switches int
	last := time.Duration(-1)
	for _, e := range tr.Events {
		if e.At < last {
			t.Fatal("events out of time order")
		}
		last = e.At
		if e.At > tr.CallEnd {
			t.Fatalf("event after call end: %v > %v", e.At, tr.CallEnd)
		}
		switch e.Kind {
		case EventProbe:
			probes++
			if e.RTT <= 0 {
				t.Fatal("probe without RTT")
			}
		case EventPacket:
			packets += e.Packets
		case EventSwitch:
			switches++
		}
	}
	if probes < 5 {
		t.Errorf("only %d probes", probes)
	}
	if packets == 0 {
		t.Error("no voice packets")
	}
}

func TestCallDeterministic(t *testing.T) {
	run := func() *Trace {
		w := buildWorld(t, 250, 2000, 101)
		c := newClient(t, w, DefaultConfig())
		s := w.RandomSessions(1)[0]
		tr, err := c.Call(1, s.A, s.B)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t1, t2 := run(), run()
	if len(t1.Events) != len(t2.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(t1.Events), len(t2.Events))
	}
	for i := range t1.Events {
		if t1.Events[i] != t2.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, t1.Events[i], t2.Events[i])
		}
	}
}

func TestCallErrors(t *testing.T) {
	w := buildWorld(t, 150, 800, 102)
	c := newClient(t, w, DefaultConfig())
	if _, err := c.Call(1, 5, 5); err == nil {
		t.Error("same-host call should fail")
	}
	cfg := DefaultConfig()
	cfg.JitterFrac = 2
	if _, err := NewClient(w.Model, w.Prober, cfg, w.RNG); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestAnalyzeMajorPathDominates(t *testing.T) {
	w := buildWorld(t, 250, 2000, 103)
	c := newClient(t, w, DefaultConfig())
	for i := 0; i < 5; i++ {
		s := w.RandomSessions(1)[0]
		tr, err := c.Call(i+1, s.A, s.B)
		if err != nil {
			t.Fatal(err)
		}
		an := Analyze(tr, w.Pop)
		if an.MajorPathShare <= 0 || an.MajorPathShare > 1 {
			t.Fatalf("major path share = %v", an.MajorPathShare)
		}
		if an.ProbedNodes < 1 {
			t.Fatal("no probed nodes recorded")
		}
		if an.Stabilization > tr.CallEnd {
			t.Fatal("stabilization beyond call end")
		}
		if an.ProbedAfterStable > an.ProbedNodes {
			t.Fatal("after-stable probes exceed total")
		}
	}
}

func TestAnalyzeDetectsRelayBounce(t *testing.T) {
	// With an aggressive switch margin and high jitter, the client must
	// bounce between relays — the paper's Limit 3.
	w := buildWorld(t, 250, 2000, 104)
	cfg := DefaultConfig()
	cfg.SwitchMargin = 0.01
	cfg.JitterFrac = 0.3
	cfg.ProbeInterval = 2 * time.Second
	cfg.CallDuration = 4 * time.Minute
	c := newClient(t, w, cfg)
	bounced := false
	for i := 0; i < 6 && !bounced; i++ {
		s := w.RandomSessions(1)[0]
		tr, err := c.Call(i+1, s.A, s.B)
		if err != nil {
			t.Fatal(err)
		}
		if an := Analyze(tr, w.Pop); an.Switches >= 3 {
			bounced = true
		}
	}
	if !bounced {
		t.Error("no session exhibited relay bounce under aggressive switching")
	}
}

func TestSameASProbingObserved(t *testing.T) {
	// Limit 2: an AS-unaware prober will eventually probe two relays in
	// one AS. Use a world with few, dense clusters to make it certain.
	w := buildWorld(t, 100, 3000, 105)
	cfg := DefaultConfig()
	cfg.InitialBurst = 40
	cfg.SupernodePool = 300
	c := newClient(t, w, cfg)
	found := false
	for i := 0; i < 8 && !found; i++ {
		s := w.RandomSessions(1)[0]
		tr, err := c.Call(i+1, s.A, s.B)
		if err != nil {
			t.Fatal(err)
		}
		if an := Analyze(tr, w.Pop); len(an.SameASPairs) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("AS-unaware probing never hit two relays in one AS")
	}
}

func TestBuildStudyLayoutAndRun(t *testing.T) {
	w := buildWorld(t, 400, 5000, 106)
	layout, err := BuildStudyLayout(w.Pop, w.Graph, w.Model, w.RNG)
	if err != nil {
		t.Fatal(err)
	}
	if len(layout.Sites) != 17 {
		t.Fatalf("%d sites, want 17", len(layout.Sites))
	}
	if len(layout.Sessions) != 14 {
		t.Fatalf("%d sessions, want 14", len(layout.Sessions))
	}
	// Sites 13-17 must sit in a different region than sites 1-6.
	homeRegion := layout.Sites[0].Region
	for _, s := range layout.Sites[12:] {
		if s.Region == homeRegion {
			t.Errorf("far site %d shares home region %d", s.ID, homeRegion)
		}
	}

	cfg := DefaultConfig()
	cfg.CallDuration = 90 * time.Second // keep the test quick
	c := newClient(t, w, cfg)
	traces, analyses, err := RunStudy(c, layout, w.Pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) < 12 {
		t.Fatalf("only %d sessions ran", len(traces))
	}
	if len(analyses) != len(traces) {
		t.Fatal("analysis count mismatch")
	}

	// Formatting smoke checks.
	if s := FormatTable1(layout.Sites, layout.Sessions); !strings.Contains(s, "Table 1") {
		t.Error("Table 1 caption missing")
	}
	if s := FormatTable2(analyses); !strings.Contains(s, "Table 2") {
		t.Error("Table 2 caption missing")
	}
	if s := FormatFig7(analyses); !strings.Contains(s, "Figure 7(a)") {
		t.Error("Figure 7 caption missing")
	}
	if s := FormatFig6(traces, 4, 9, 10); !strings.Contains(s, "Figure 6") {
		t.Error("Figure 6 caption missing")
	}
}

func TestTimeSeriesOnlyProbes(t *testing.T) {
	w := buildWorld(t, 200, 1500, 107)
	c := newClient(t, w, DefaultConfig())
	s := w.RandomSessions(1)[0]
	tr, err := c.Call(1, s.A, s.B)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range TimeSeries(tr) {
		if e.Kind != EventProbe {
			t.Fatal("non-probe event in time series")
		}
	}
}
