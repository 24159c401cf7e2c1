package main

import (
	"fmt"
	"runtime"
	"time"

	"asap/internal/asgraph"
	"asap/internal/baseline"
	"asap/internal/bgp"
	"asap/internal/cluster"
	"asap/internal/core"
	"asap/internal/eval"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// select_small: the paper's Fig 11-18 path. One operation is one
// eval.NewASAPMethod(sys, w.Engine).Run(session) on the `small` world,
// over equal numbers of latent and non-latent sessions drawn with
// World.RandomSessions (the same sessions for every benchmark seed; the
// seed roots the system's close-set probe noise and picks the edited
// AS), in three phases per repetition:
//
//	cold  fresh core.NewSystemSeeded: first touch builds close sets
//	      (valley-free BFS + prober) and refills the ground-truth cache
//	warm  the same sessions again: cached close sets, cached model
//	edit  Model.SetCondition on a seeded transit AS drops the model
//	      cache; the sessions run again; the condition is restored
//
// edit is the write-beside-read case: a cache that speeds warm but makes
// invalidation dearer shows there.

const (
	selectLatent      = 120
	selectOther       = 120
	selectLatentSmoke = 12
	selectOtherSmoke  = 12
)

type selectSmall struct {
	e        *env
	w        *eval.World
	buildS   float64
	sessions []eval.Session // latent first, then non-latent
	nLatent  int
	editAS   asgraph.ASN
	editCond netmodel.Condition

	repDigests []string
	warm       []eval.Outcome // last warm phase, for the exact metrics
	runErrs    int64
}

func newSelectSmall(e *env) *selectSmall { return &selectSmall{e: e} }

func (w *selectSmall) repSeconds() float64 { return 1.15 }

func (w *selectSmall) setup() error {
	t0 := time.Now()
	world, err := eval.BuildWorld(worldProfile(w.e.smoke))
	if err != nil {
		return err
	}
	w.buildS = time.Since(t0).Seconds()
	w.w = world
	nl, no := selectLatent, selectOther
	if w.e.smoke {
		nl, no = selectLatentSmoke, selectOtherSmoke
	}
	latent, other := drawSessions(world, nl, no, core.DefaultParams().LatT, 400*nl)
	if len(latent) == 0 || len(other) == 0 {
		return fmt.Errorf("drew %d latent and %d non-latent sessions", len(latent), len(other))
	}
	w.sessions = append(append([]eval.Session(nil), latent...), other...)
	w.nLatent = len(latent)
	// The edited AS: a well-connected transit AS without an impairment of
	// its own, chosen by the seed.
	rng := sim.NewRNG(sim.SubSeed(w.e.seed, sim.StringLabel(wSelectSmall)))
	top := world.Graph.TopDegreeASNs(64)
	for tries := 0; tries < 256; tries++ {
		asn := top[rng.Intn(len(top))]
		if _, has := world.Model.Condition(asn); !has {
			w.editAS = asn
			break
		}
	}
	w.editCond = netmodel.Condition{ExtraOneWay: 120 * time.Millisecond, LossRate: 0.01}
	w.repDigests, w.runErrs = nil, 0
	return nil
}

// pass runs every session once through m and records outcome lines.
func (w *selectSmall) pass(phase string, m eval.Method, dig *digest) ([]eval.Outcome, int64) {
	tr := w.e.tr
	outs := make([]eval.Outcome, len(w.sessions))
	var failed int64
	for i, s := range w.sessions {
		rng := sim.NewRNG(sim.SubSeed(w.e.seed, sim.StringLabel("asap-run"), uint64(i)))
		op := tr.beginOp("bench", "select."+phase)
		id := tr.begin("eval", "asap_run."+phase)
		o, err := m.Run(s, rng)
		tr.end(id)
		tr.end(op)
		if err != nil {
			failed++
			dig.linef("%s %d error %v", phase, i, err)
			continue
		}
		outs[i] = o
		dig.linef("%s %d paths=%d rtt=%d mos=%.6f msgs=%d", phase, i, o.QualityPaths, o.ShortestRTT, o.HighestMOS, o.Messages)
	}
	return outs, failed
}

func (w *selectSmall) rep(i int) (int64, int64, error) {
	dig := newDigest()
	sys, err := core.NewSystemSeeded(w.w.Model, w.w.Prober, core.DefaultParams(), w.e.seed)
	if err != nil {
		return 0, 0, err
	}
	m := eval.NewASAPMethod(sys, w.w.Engine)
	var failed int64
	_, f := w.pass("cold", m, dig)
	failed += f
	warm, f := w.pass("warm", m, dig)
	failed += f
	prior, _ := w.w.Model.Condition(w.editAS)
	w.w.Model.SetCondition(w.editAS, w.editCond)
	_, f = w.pass("edit", m, dig)
	failed += f
	w.w.Model.SetCondition(w.editAS, prior)
	if i >= 1 {
		w.warm = warm
		w.runErrs += failed
		if i <= pinnedReps {
			w.repDigests = append(w.repDigests, dig.sum())
		}
	}
	return int64(3 * len(w.sessions)), failed, nil
}

func (w *selectSmall) finish(res *Result) {
	res.Digest = w.repDigests[0]
	same := true
	for _, d := range w.repDigests {
		same = same && d == w.repDigests[0]
	}
	res.check("select_small.digest_repeats", same, "outcome digests differ across repetitions")
	res.check("select_small.no_run_errors", w.runErrs == 0, "%d selections returned an error", w.runErrs)

	var msgs, mos []float64
	rescued := 0
	for i, o := range w.warm {
		msgs = append(msgs, float64(o.Messages))
		best := o.HighestMOS
		if d := directMOS(w.w, w.sessions[i]); d > best {
			best = d
		}
		mos = append(mos, best)
		if i < w.nLatent && o.QualityPaths > 0 {
			rescued++
		}
	}
	res.Metrics["msgs_per_call"] = exact(mean(msgs), "count")
	res.Metrics["mos_mean"] = exact(mean(mos), "MOS")
	res.Metrics["rescued_ratio"] = exact(float64(rescued)/float64(w.nLatent), "ratio")
	res.Counts["sessions"] = float64(len(w.sessions))
	res.Counts["latent_sessions"] = float64(w.nLatent)
	res.Counts["edit_as"] = float64(w.editAS)
}

func (w *selectSmall) teardown() {
	w.w, w.sessions, w.warm = nil, nil, nil
}

func (w *selectSmall) probes(res *Result, sum *traceSummary) {
	var covered time.Duration
	var opUS []float64
	for _, ph := range []string{"cold", "warm", "edit"} {
		covered += sum.get("eval.asap_run." + ph).total
		opUS = append(opUS, sum.get("bench.select."+ph).durs...)
	}
	if sum.opWall > 0 {
		res.layer("trace.span_coverage", float64(covered)/float64(sum.opWall))
	}
	res.layer("proc.op_us_p50", percentile(opUS, 50))
	res.layer("proc.op_us_p99", percentile(opUS, 99))
	res.layer("eval.build_world_s", w.buildS)

	world := w.w
	pop, model, g := world.Pop, world.Model, world.Graph
	latent := w.sessions[:w.nLatent]
	scale := 1
	if w.e.smoke {
		scale = 10
	}

	// The clusters and ASes the workload's sessions touch.
	var clusters []cluster.ClusterID
	var asns []asgraph.ASN
	seen := map[cluster.ClusterID]bool{}
	for _, s := range w.sessions {
		for _, h := range []cluster.HostID{s.A, s.B} {
			c := pop.Host(h).Cluster
			if !seen[c] {
				seen[c] = true
				clusters = append(clusters, c)
				asns = append(asns, pop.Host(h).AS)
			}
		}
	}

	// asgraph
	ns, allocs := probeMedian(3, 400/scale, func(i int) { _ = g.ValleyFreeBFS(asns[i%len(asns)], 4) })
	res.layer("asgraph.vfbfs_us", ns/1e3)
	res.layer("asgraph.vfbfs_allocs", allocs)
	ns, _ = probeMedian(3, 60/scale, func(i int) { _ = g.BuildRouteTable(asns[i%len(asns)]) })
	res.layer("asgraph.route_table_us", ns/1e3)

	// netmodel, on the workload's own cluster pairs.
	owner := clusters[0]
	targets := clusters[1:]
	if len(targets) > 64 {
		targets = targets[:64]
	}
	pairs := make([]netmodel.PairStat, len(targets))
	model.ClusterStatsBatch(owner, targets, pairs) // fill
	ns, _ = probeMedian(5, 20000/scale, func(i int) { _, _ = model.ClusterRTT(owner, targets[i%len(targets)]) })
	res.layer("netmodel.cluster_rtt_warm_ns", ns)
	ns, allocs = probeMedian(5, 2000/scale, func(int) { model.ClusterStatsBatch(owner, targets, pairs) })
	res.layer("netmodel.stats_batch_ns_per_pair", ns/float64(len(targets)))
	res.layer("netmodel.stats_batch_allocs", allocs)
	probesOut := make([]netmodel.ClusterProbe, len(targets))
	prober := world.Prober.WithRNG(sim.NewRNG(w.e.seed)).WithCounters(sim.NewCounters())
	ns, _ = probeMedian(5, 2000/scale, func(int) {
		prober.ProbeClusterSet(owner, targets, core.DefaultParams().LatT, probesOut)
	})
	res.layer("netmodel.probe_cluster_set_us", ns/1e3)
	prior, _ := model.Condition(w.editAS)
	var setUS, coldUS, refillUS []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		model.SetCondition(w.editAS, w.editCond)
		setUS = append(setUS, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		for _, t := range targets {
			_, _ = model.ClusterRTT(owner, t)
		}
		coldUS = append(coldUS, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(targets)))
		model.SetCondition(w.editAS, prior)
		t0 = time.Now()
		model.ClusterStatsBatch(owner, targets, pairs)
		refillUS = append(refillUS, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(targets)))
	}
	res.layer("netmodel.set_condition_us", median(setUS))
	res.layer("netmodel.cluster_rtt_cold_us", median(coldUS))
	res.layer("netmodel.refill_after_edit_us", median(refillUS))
	var sink float64
	ns, _ = probeMedian(5, 100000/scale, func(i int) {
		sink += netmodel.MOSFromRTT(time.Duration(i%400)*time.Millisecond, 0.005, netmodel.CodecG729A)
	})
	res.layer("netmodel.mos_ns", ns)
	res.check("netmodel.mos_in_range", sink > 0, "MOS sum %g", sink)

	// overlay / baseline
	relays := make([]cluster.HostID, 0, 64)
	for _, c := range targets {
		relays = append(relays, pop.Cluster(c).Hosts[0])
	}
	paths := make([]overlay.Path, len(relays))
	s0 := latent[0]
	ns, _ = probeMedian(5, 2000/scale, func(int) { world.Engine.OneHopBatch(s0.A, relays, s0.B, paths) })
	res.layer("overlay.onehop_batch_ns_per_relay", ns/float64(len(relays)))
	ns, _ = probeMedian(3, 12/scale+1, func(i int) { _, _ = world.Engine.OptimalOneHop(latent[i%len(latent)].A, latent[i%len(latent)].B) })
	res.layer("overlay.optimal_onehop_us", ns/1e3)
	dedi, rnd, mix, err := world.NewBaselines(80, 200, 40, 120)
	if err != nil {
		res.check("baseline.build", false, "%v", err)
		return
	}
	methods := map[string]eval.Method{}
	for name, sel := range map[string]baseline.Selector{"dedi": dedi, "rand": rnd, "mix": mix} {
		m := eval.NewBaselineMethod(sel, world.Engine)
		methods[name] = m
		brng := sim.NewRNG(w.e.seed)
		ns, _ = probeMedian(3, 120/scale, func(i int) { _, _ = m.Run(latent[i%len(latent)], brng) })
		res.layer("baseline."+name+"_run_us", ns/1e3)
	}

	// core.System: close-set construction on a fresh system each round.
	var buildUS, buildAllocs, buildMsgs, sizes []float64
	nBuild := 150 / scale
	if nBuild > len(clusters) {
		nBuild = len(clusters)
	}
	for r := 0; r < 3; r++ {
		sys, err := core.NewSystemSeeded(model, world.Prober, core.DefaultParams(), world.Profile.Seed)
		if err != nil {
			res.check("core.system", false, "%v", err)
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, c := range clusters[:nBuild] {
			cs, err := sys.CloseSet(c)
			if err == nil && r == 0 {
				sizes = append(sizes, float64(cs.Size()))
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		buildUS = append(buildUS, float64(el.Nanoseconds())/1e3/float64(nBuild))
		buildAllocs = append(buildAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(nBuild))
		buildMsgs = append(buildMsgs, float64(sys.BuildMessages())/float64(nBuild))
	}
	res.layer("core.closeset_build_us", median(buildUS))
	res.layer("core.closeset_build_allocs", median(buildAllocs))
	res.layer("core.closeset_build_msgs", median(buildMsgs))
	res.layer("core.closeset_size_mean", mean(sizes))

	// core.System: select-close-relay at SizeT 0 (one-hop only) and 300.
	for _, sizeT := range []int{0, 300} {
		params := core.DefaultParams()
		params.SizeT = sizeT
		sys, err := core.NewSystemSeeded(model, world.Prober, params, world.Profile.Seed)
		if err != nil {
			res.check("core.system", false, "%v", err)
			return
		}
		var msgs, twoHop float64
		for _, s := range latent { // warm every close set the sessions need
			if sel, err := sys.SelectCloseRelay(s.A, s.B); err == nil {
				msgs += float64(sel.Messages)
				if sel.OneHopHosts < params.SizeT {
					twoHop++
				}
			}
		}
		ns, allocs = probeMedian(3, len(latent), func(i int) { _, _ = sys.SelectCloseRelay(latent[i].A, latent[i].B) })
		if sizeT == 0 {
			res.layer("core.select_onehop_us", ns/1e3)
		} else {
			res.layer("core.select_twohop_us", ns/1e3)
			res.layer("core.select_allocs", allocs)
			res.layer("core.select_msgs", msgs/float64(len(latent)))
			res.layer("core.twohop_share", twoHop/float64(len(latent)))
		}
	}

	// eval: the five-method comparison at 1 and nproc workers — the only
	// multi-goroutine numbers in the suite.
	sysCmp, err := world.NewASAP(core.DefaultParams())
	if err != nil {
		res.check("core.system", false, "%v", err)
		return
	}
	cmp := []eval.Method{methods["dedi"], methods["rand"], methods["mix"],
		eval.NewASAPMethod(sysCmp, world.Engine), eval.NewOPTMethod(world.Engine)}
	sample := latent
	if len(sample) > 24 {
		sample = sample[:24]
	}
	eval.RunComparison(cmp, sample, w.e.seed, 0) // warm caches for both arms
	perS := func(workers int) float64 {
		t0 := time.Now()
		c := eval.RunComparison(cmp, sample, w.e.seed, workers)
		if len(c.Order) != len(cmp) {
			res.check("eval.comparison", false, "lost a method")
		}
		return float64(len(sample)) / time.Since(t0).Seconds()
	}
	w1, wn := perS(1), perS(runtime.NumCPU())
	res.layer("eval.comparison_sessions_per_s.w1", w1)
	res.layer("eval.comparison_sessions_per_s.wn", wn)
	res.layer("eval.parallel_efficiency", wn/w1/float64(runtime.NumCPU()))

	// World-build stages, timed on a second build of the same profile.
	p := world.Profile
	rng := sim.NewRNG(p.Seed)
	t0 := time.Now()
	g2, err := asgraph.Generate(asgraph.DefaultGenConfig(p.ASes), rng)
	res.layer("asgraph.generate_s", time.Since(t0).Seconds())
	if err != nil {
		res.check("asgraph.generate", false, "%v", err)
		return
	}
	t0 = time.Now()
	alloc, err := bgp.Allocate(g2, bgp.DefaultAllocConfig(), rng)
	res.layer("bgp.allocate_s", time.Since(t0).Seconds())
	if err != nil {
		res.check("bgp.allocate", false, "%v", err)
		return
	}
	t0 = time.Now()
	pop2, err := cluster.Generate(alloc, cluster.DefaultGenConfig(p.Hosts), rng)
	res.layer("cluster.generate_s", time.Since(t0).Seconds())
	if err != nil {
		res.check("cluster.generate", false, "%v", err)
		return
	}
	router := asgraph.NewRouter(g2, len(pop2.PopulatedASes())+512)
	t0 = time.Now()
	_, err = netmodel.New(g2, router, pop2, netmodel.DefaultConfig(), rng)
	res.layer("netmodel.new_s", time.Since(t0).Seconds())
	res.check("netmodel.new", err == nil, "%v", err)
}
