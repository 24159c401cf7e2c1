// Benchmarks awaiting a bench/ row. The repo's benchmark is bench/
// (`bash bench/run.sh`, BENCHMARK.json); what is left here measures
// work no row of bench/registry.go carries yet and no test asserts:
// the Section 3 routing-study figures, the Skype study, Figure 17's
// scaled world, the K ablation, Gao inference, and the wall-clock cost
// of the virtual-time experiments. CHANGES.md (PR 16) names the row
// each one is waiting for; a benchmark leaves this file when its row
// lands.
package asap_test

import (
	"sync"
	"testing"
	"time"

	"asap"
	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/eval"
	"asap/internal/netmodel"
	"asap/internal/sim"
	"asap/internal/skype"
)

// benchState caches one built world and its session workload across
// benchmarks.
type benchState struct {
	world  *asap.World
	sess   []eval.Session
	latent []eval.Session
}

func newBenchState(b *testing.B, p asap.Profile) benchState {
	b.Helper()
	w, err := asap.BuildWorld(p)
	if err != nil {
		b.Fatal(err)
	}
	sess := w.RandomSessions(p.Sessions)
	return benchState{world: w, sess: sess, latent: w.LatentSessions(sess, netmodel.QualityRTT)}
}

var (
	benchOnce sync.Once
	bench     benchState
)

func benchWorld(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() { bench = newBenchState(b, asap.TinyProfile) })
	if len(bench.latent) == 0 {
		b.Skip("no latent sessions at bench scale")
	}
	return &bench
}

// --- Section 3 figures ---

// BenchmarkFig2a regenerates the direct-RTT distribution (Figure 2(a)):
// one full pass over the session workload per iteration.
func BenchmarkFig2a(b *testing.B) {
	st := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		over := 0
		for _, s := range st.sess {
			if rtt, ok := st.world.DirectRTT(s); ok && rtt > netmodel.QualityRTT {
				over++
			}
		}
		if over == 0 {
			b.Fatal("no latent sessions")
		}
	}
}

// BenchmarkFig3a regenerates the RTT-reduction-rate series (Figure 3(a)).
func BenchmarkFig3a(b *testing.B) {
	st := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := st.sess[i%len(st.sess)]
		direct, ok1 := st.world.DirectRTT(s)
		opt, ok2 := st.world.Engine.OptimalOneHop(s.A, s.B)
		if ok1 && ok2 && opt.RTT < direct {
			_ = float64(direct-opt.RTT) / float64(direct)
		}
	}
}

// --- Section 5: the Skype study ---

func benchSkypeClient(b *testing.B, st *benchState) *skype.Client {
	b.Helper()
	cfg := skype.DefaultConfig()
	cfg.CallDuration = 60 * time.Second
	c, err := skype.NewClient(st.world.Model, st.world.Prober, cfg, st.world.RNG)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTable1Fig5 builds the 17-site / 14-session study layout.
func BenchmarkTable1Fig5(b *testing.B) {
	st := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := skype.BuildStudyLayout(st.world.Pop, st.world.Graph, st.world.Model, st.world.RNG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 simulates one Skype-like call and extracts its relay-path
// time series (Figure 6).
func BenchmarkFig6(b *testing.B) {
	st := benchWorld(b)
	c := benchSkypeClient(b, st)
	s := st.latent[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := c.Call(i, s.A, s.B)
		if err != nil {
			b.Fatal(err)
		}
		if len(skype.TimeSeries(tr)) == 0 {
			b.Fatal("empty time series")
		}
	}
}

// BenchmarkTable2Fig7 simulates a call and runs the full trace analysis
// (Table 2 and Figures 7(a)-(c)).
func BenchmarkTable2Fig7(b *testing.B) {
	st := benchWorld(b)
	c := benchSkypeClient(b, st)
	s := st.latent[len(st.latent)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := c.Call(i, s.A, s.B)
		if err != nil {
			b.Fatal(err)
		}
		a := skype.Analyze(tr, st.world.Pop)
		if a.ProbedNodes == 0 {
			b.Fatal("no probes analyzed")
		}
	}
}

// --- Section 7 figures ---

// BenchmarkFig17Scalability runs ASAP selection in the 2x-population
// world (Figure 17's scaled arm).
func BenchmarkFig17Scalability(b *testing.B) {
	p := asap.TinyProfile
	p.Name = "tiny-scaled"
	p.Hosts *= 2
	st := newBenchState(b, p)
	if len(st.latent) == 0 {
		b.Skip("no latent sessions in scaled world")
	}
	sys, err := asap.NewSystem(st.world, asap.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := st.latent[i%len(st.latent)]
		if _, err := sys.SelectCloseRelay(s.A, s.B); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkCloseSetK ablates the valley-free BFS bound K (the paper
// argues K=4 suffices; larger K probes more for little gain).
func BenchmarkCloseSetK(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		k := k
		b.Run(map[int]string{2: "K2", 4: "K4", 6: "K6"}[k], func(b *testing.B) {
			st := benchWorld(b)
			params := asap.DefaultParams()
			params.K = k
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := asap.NewSystem(st.world, params)
				if err != nil {
					b.Fatal(err)
				}
				cid := st.world.Pop.Host(st.latent[i%len(st.latent)].A).Cluster
				b.StartTimer()
				if _, err := sys.CloseSet(cid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGaoInference measures relationship inference over a synthetic
// RIB's paths.
func BenchmarkGaoInference(b *testing.B) {
	rng := sim.NewRNG(7)
	g, err := asgraph.Generate(asgraph.DefaultGenConfig(300), rng)
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := bgp.Allocate(g, bgp.DefaultAllocConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	router := asgraph.NewRouter(g, 0)
	asns := g.ASNs()
	var vas []asgraph.ASN
	for _, i := range rng.Sample(len(asns), 6) {
		vas = append(vas, asns[i])
	}
	paths := bgp.Paths(bgp.SynthesizeRIB(router, alloc, vas))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if edges := asgraph.InferRelationships(paths, asgraph.InferConfig{}); len(edges) == 0 {
			b.Fatal("no edges inferred")
		}
	}
}

// --- Parallel evaluation harness ---

// benchRoutingStudyWorkers sweeps the Section 3 routing study with a
// fixed worker count.
func benchRoutingStudyWorkers(b *testing.B, workers int) {
	st := benchWorld(b)
	sessions := st.sess
	if len(sessions) > 600 {
		sessions = sessions[:600]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eval.RunRoutingStudy(st.world, sessions, 60, netmodel.QualityRTT, 0, workers)
		if len(r.DirectMs) == 0 {
			b.Fatal("empty routing study")
		}
	}
}

// BenchmarkRoutingStudySerial is the single-worker routing-study
// baseline.
func BenchmarkRoutingStudySerial(b *testing.B) { benchRoutingStudyWorkers(b, 1) }

// BenchmarkRoutingStudyParallel runs the routing study on all CPUs.
func BenchmarkRoutingStudyParallel(b *testing.B) { benchRoutingStudyWorkers(b, 0) }

// BenchmarkChurnVirtualTime runs the full two-arm churn experiment —
// five live nodes, a bootstrap outage, a surrogate kill and 40 calls
// per arm — entirely on the virtual clock. One iteration covers tens
// of seconds of protocol time, so ns/op is the experiment's whole
// wall-clock cost: a regression to real sleeps shows as a cliff
// (DESIGN.md §10).
func BenchmarkChurnVirtualTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunChurn(eval.DefaultChurnConfig())
		if err != nil {
			b.Fatal(err)
		}
		if res.Lease.Completed == 0 {
			b.Fatal("churn arm completed no calls")
		}
	}
}

// BenchmarkStabilizationVirtualTime runs both stabilization arms (a
// 60 s session horizon each) under the virtual clock; see
// BenchmarkChurnVirtualTime for what the number shows.
func BenchmarkStabilizationVirtualTime(b *testing.B) {
	paths := []eval.PathGround{
		{Relay: "r0", RTT: 110 * time.Millisecond, Loss: 0.005},
		{Relay: "r1", RTT: 140 * time.Millisecond, Loss: 0.005},
		{Relay: "r2", RTT: 320 * time.Millisecond, Loss: 0.03},
		{Relay: "r3", RTT: 380 * time.Millisecond, Loss: 0.04},
	}
	for i := 0; i < b.N; i++ {
		res, err := eval.RunStabilization(eval.DefaultStabilizationConfig(paths))
		if err != nil {
			b.Fatal(err)
		}
		if res.ASAP.DetectAfter < 0 {
			b.Fatal("stabilization arm never detected the failure")
		}
	}
}
