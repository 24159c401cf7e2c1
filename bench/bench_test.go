package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the registry")

func TestMain(m *testing.M) {
	logw = io.Discard
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestRegistryNames(t *testing.T) {
	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if len(EndToEnd) != 12 {
		t.Errorf("have %d end-to-end metrics, the issue names 12", len(EndToEnd))
	}
	for i, m := range EndToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
		if i < contractEndToEnd && (m.Workloads != nil || m.Bound == 0) {
			t.Errorf("%s: a contract end-to-end metric applies to every workload and has a bound", m.Name)
		}
		for _, w := range m.Workloads {
			if !contains(workloadNames(), w) {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
	layers := contractPerLayer()
	if len(layers) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(layers))
	}
	for _, m := range layers {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
		if len(m.Home) == 0 || m.Moves == "" {
			t.Errorf("%s: needs a home workload and the end-to-end metric it should move", m.Name)
		}
		for _, w := range m.Home {
			if !contains(workloadNames(), w) {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
}

func metricByName(name string) Metric {
	for _, m := range EndToEnd {
		if m.Name == name {
			return m
		}
	}
	panic("no end-to-end metric " + name)
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// benchmarkJSON is the driver's contract file, rendered from the registry.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range Workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range EndToEnd[:contractEndToEnd] {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range contractPerLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n')
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := benchmarkJSON()
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run BenchmarkJSON -update` in bench/ to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json has drifted from the registry; run `go test -run BenchmarkJSON -update` in bench/")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(got))
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4) in CPython 3.11.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", c.in, i, got, c.want[i])
			}
		}
	}
}

func smokeRun(t *testing.T, workload string, seed int64, traced bool) *Result {
	t.Helper()
	opt := runOptions{seed: seed, seconds: 1, smoke: true, traced: traced}
	if traced {
		opt.traceOut = filepath.Join(t.TempDir(), workload+".jsonl")
	}
	res, err := runWorkload(workload, opt)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("%s seed %d: check %s failed: %s", workload, seed, c.Name, c.Detail)
		}
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s seed %d: attempted %d, failed %d", workload, seed, res.Attempted, res.Failed)
	}
	return res
}

// TestSmokeWorkloads runs a tiny size of every workload to completion
// with all correctness checks, twice with one seed and once with another:
// the exact metrics and the digest must repeat for a seed and the digest
// must change with it.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a, b, c := smokeRun(t, w.Name, 1, false), smokeRun(t, w.Name, 1, false), smokeRun(t, w.Name, 2, false)
			if a.Digest == "" || a.Digest != b.Digest {
				t.Errorf("same seed, digests %q and %q", a.Digest, b.Digest)
			}
			if a.Digest == c.Digest {
				t.Errorf("seeds 1 and 2 give the same digest %q", a.Digest)
			}
			for _, m := range EndToEnd {
				if !m.appliesTo(w.Name) {
					if _, ok := a.Metrics[m.Name]; ok && m.Workloads != nil {
						t.Errorf("%s reported though it does not apply", m.Name)
					}
					continue
				}
				st, ok := a.Metrics[m.Name]
				if !ok {
					t.Errorf("%s not reported", m.Name)
					continue
				}
				if m.Bound == 0 && st.Value != b.Metrics[m.Name].Value {
					t.Errorf("%s is exact but read %v then %v for one seed", m.Name, st.Value, b.Metrics[m.Name].Value)
				}
			}
			line := contractLine(a)
			var parsed struct {
				Correct   *bool                    `json:"correct"`
				Attempted *int64                   `json:"attempted"`
				Failed    *int64                   `json:"failed"`
				Metrics   map[string]contractValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil || parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil {
				t.Fatalf("contract line %q: %v", line, err)
			}
			if len(parsed.Metrics) != contractEndToEnd {
				t.Errorf("contract line carries %d metrics, want %d", len(parsed.Metrics), contractEndToEnd)
			}
			for name, v := range parsed.Metrics {
				if v.Value <= 0 {
					t.Errorf("contract end-to-end metric %s = %v; it must never be 0", name, v.Value)
				}
			}
		})
	}
}

// TestSmokeTraced runs every workload traced: the span tree must be well
// formed, every per-layer row homed on the workload must be reported,
// and the span file must hold one JSON object per line.
func TestSmokeTraced(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res := smokeRun(t, w.Name, 1, true)
			for _, m := range PerLayer {
				_, ok := res.Layers[m.Name]
				if home := contains(m.Home, w.Name); home && !ok {
					t.Errorf("per-layer metric %s not reported on its home workload", m.Name)
				} else if !home && ok {
					t.Errorf("per-layer metric %s reported on %s, which is not its home", m.Name, w.Name)
				}
			}
			var parsed struct {
				Metrics map[string]contractValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(contractLine(res)), &parsed); err != nil {
				t.Fatal(err)
			}
			if want := len(contractPerLayer()); len(parsed.Metrics) != want {
				t.Errorf("traced contract line carries %d metrics, want %d", len(parsed.Metrics), want)
			}
			data, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) < 2 {
				t.Fatalf("span file has %d lines", len(lines))
			}
			for _, l := range lines[:2] {
				var s struct {
					ID      *int    `json:"id"`
					Parent  *int    `json:"parent"`
					Op      *int    `json:"op_id"`
					Layer   *string `json:"layer"`
					Name    *string `json:"name"`
					StartNS *int64  `json:"start_ns"`
					EndNS   *int64  `json:"end_ns"`
				}
				if err := json.Unmarshal([]byte(l), &s); err != nil || s.ID == nil || s.Parent == nil ||
					s.Op == nil || s.Layer == nil || s.Name == nil || s.StartNS == nil || s.EndNS == nil {
					t.Errorf("span line %q: %v", l, err)
				}
			}
		})
	}
}

func TestTraceAnalysis(t *testing.T) {
	tr := newTracer()
	tr.on = true
	// op 0: root [0,100] with children [10,40] and [30,60] (overlapping
	// leaves) and a nested driver span [70,90] holding a leaf [75,80].
	tr.spans = []span{
		{id: 0, parent: -1, op: 0, name: tr.nameID("bench", "op"), start: 0, end: 100},
		{id: 1, parent: 0, op: 0, name: tr.nameID("transport", "call"), start: 10, end: 40},
		{id: 2, parent: 0, op: 0, name: tr.nameID("transport", "call"), start: 30, end: 60},
		{id: 3, parent: 0, op: 0, name: tr.nameID("core", "setup"), start: 70, end: 90},
		{id: 4, parent: 3, op: 0, name: tr.nameID("transport", "call"), start: 75, end: 80},
	}
	sum := tr.analyse()
	if len(sum.malformed) != 0 {
		t.Fatalf("sound tree reported malformed: %v", sum.malformed)
	}
	if got := sum.get("bench.op").self; got != 30 { // 100 - (50 + 20)
		t.Errorf("root self time = %d, want 30", got)
	}
	if got := sum.get("core.setup").self; got != 15 {
		t.Errorf("setup self time = %d, want 15", got)
	}
	if got := sum.get("transport.call"); got.count != 3 || got.total != 65 {
		t.Errorf("transport.call: %d spans, total %d", got.count, got.total)
	}
	// A decorator span that outlives its parent (an abandoned task) is
	// cut at the parent's end and counted.
	tr.spans = append(tr.spans,
		span{id: 5, parent: 3, op: 0, name: tr.nameID("transport", "call"), leaf: true, start: 85, end: 95})
	sum = tr.analyse()
	if len(sum.malformed) != 0 || sum.cut != 1 || tr.spans[5].end != 90 {
		t.Errorf("late decorator span: malformed %v, cut %d, end %d", sum.malformed, sum.cut, tr.spans[5].end)
	}
	// A driver span that outlives its parent, and a second root, must be caught.
	tr.spans = append(tr.spans,
		span{id: 6, parent: 3, op: 0, name: tr.nameID("core", "inner"), start: 85, end: 95},
		span{id: 7, parent: -1, op: 0, name: tr.nameID("bench", "op"), start: 100, end: 110})
	if sum := tr.analyse(); len(sum.malformed) < 2 {
		t.Errorf("malformed tree not reported: %v", sum.malformed)
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall, msgs, mos := metricByName("wall_us_per_op"), metricByName("msgs_per_call"), metricByName("mos_mean")
	cases := []struct {
		m    Metric
		a, b []float64
		want string
	}{
		{wall, []float64{100, 101, 99}, []float64{100, 102, 101}, "ok"},
		{wall, []float64{100, 101, 99}, []float64{130, 131, 129}, "worse"},
		{wall, []float64{100, 160, 70}, []float64{100, 102, 101}, "unresolved"},
		{wall, []float64{100, 160, 70}, []float64{50, 52, 51}, "ok"}, // every run better
		{msgs, []float64{12, 12, 12}, []float64{12, 12, 12}, "ok"},
		{msgs, []float64{12, 12, 12}, []float64{13, 13, 13}, "worse"},
		{msgs, []float64{12, 12.5, 12}, []float64{12, 12, 12}, "unresolved"},
		{mos, []float64{3.9, 3.9}, []float64{3.8, 3.8}, "worse"},
		{mos, []float64{3.9, 3.9}, []float64{4.0, 4.0}, "ok"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestListNamesEverything(t *testing.T) {
	var buf bytes.Buffer
	printList(&buf)
	out := buf.String()
	for _, w := range Workloads {
		if !strings.Contains(out, w.Name) {
			t.Errorf("-list omits workload %s", w.Name)
		}
	}
	for _, m := range EndToEnd {
		if !strings.Contains(out, m.Name) {
			t.Errorf("-list omits %s", m.Name)
		}
	}
	for _, m := range PerLayer {
		if !strings.Contains(out, m.Name) {
			t.Errorf("-list omits %s", m.Name)
		}
	}
}
