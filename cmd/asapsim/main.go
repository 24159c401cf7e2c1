// Command asapsim regenerates the paper's measurement and evaluation
// figures (Sections 3 and 7) from a synthesized world, and — in scale
// mode — stands up live virtual deployments of 10^4..10^6 protocol nodes
// on the sharded conservative-lookahead runner.
//
// Usage:
//
//	asapsim -profile small -figs all
//	asapsim -profile paper -figs 2a,2b,3a,3b
//	asapsim -profile small -figs 11,13,15,17,18 -sessions 2000
//	asapsim -scale -nodes 1000000 -parallel 4 -benchout BENCH_scale.json
//
// Each figure is printed as a labelled text table with the paper's
// qualitative expectation alongside, and optionally written as CSV.
// Scale mode runs a deployment ladder (10^4, 10^5, ... up to -nodes),
// each rung a full join/churn/call workload on the virtual clock, and
// writes events/sec, bytes-per-node, peak RSS and the fig. 17 relay-
// quality extension to -benchout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"asap/internal/core"
	"asap/internal/eval"
	"asap/internal/netmodel"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "asapsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("asapsim", flag.ContinueOnError)
	var (
		profileName = fs.String("profile", "small", "world scale: tiny|small|paper")
		figs        = fs.String("figs", "all", "comma-separated figure list: 2a,2b,3a,3b,11,13,15,17,18 or all")
		sessions    = fs.Int("sessions", 0, "override session count (0 = profile default)")
		latentCap   = fs.Int("latent", 0, "cap latent sessions used in the comparison (0 = all)")
		pairSample  = fs.Int("pairsample", 2000, "sessions sampled for the Fig 2(b)/3(a) sweep")
		seed        = fs.Int64("seed", 0, "override world seed (0 = profile default)")
		dediN       = fs.Int("dedi", 80, "DEDI dedicated node count")
		randN       = fs.Int("rand", 200, "RAND probe count")
		mixD        = fs.Int("mixdedi", 40, "MIX dedicated node count")
		mixR        = fs.Int("mixrand", 120, "MIX random probe count")
		scaleRatio  = fs.Float64("fig17-ratio", 4.434, "population ratio for Fig 17 (paper: 103625/23366)")
		csvDir      = fs.String("csv", "", "also write raw figure series as CSV files into this directory")
		kFlag       = fs.Int("k", 0, "valley-free BFS bound (0 = calibrate by the paper's 90%-quantile rule)")
		parallel    = fs.Int("parallel", runtime.GOMAXPROCS(0), "figure mode: measurement worker goroutines (output identical for any value); scale mode: shard count (output identical for any value)")
		scaleMode   = fs.Bool("scale", false, "run the deployment ladder (10^4..-nodes live protocol nodes with churn on the virtual clock) instead of figures")
		nodesFlag   = fs.Int("nodes", 1_000_000, "scale mode: ladder ceiling, the largest deployment population")
		benchOut    = fs.String("benchout", "BENCH_scale.json", "scale mode: write the ladder report as JSON to this file")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *scaleMode {
		for _, name := range []string{"profile", "figs", "sessions", "latent", "pairsample", "seed",
			"dedi", "rand", "mixdedi", "mixrand", "fig17-ratio", "csv", "k"} {
			if set[name] {
				return fmt.Errorf("-%s is a figure-mode flag and has no effect with -scale; drop it (scale mode is tuned by -nodes, -parallel, -benchout)", name)
			}
		}
		if *nodesFlag < 1000 {
			return fmt.Errorf("-nodes %d is below the 1000-node floor: the harness clusters ~250 residents per /16 and needs a real population (try -nodes 10000)", *nodesFlag)
		}
		if *nodesFlag > 5_000_000 {
			return fmt.Errorf("-nodes %d exceeds the 5M ceiling: a rung that size needs tens of GB of resident node state; run the 10^6 ladder and extrapolate", *nodesFlag)
		}
		if *parallel < 1 || *parallel > 256 {
			return fmt.Errorf("-parallel %d is not a usable shard count; pick 1..256 (outcomes are byte-identical for any value, so match your core count)", *parallel)
		}
	}
	for _, name := range []string{"nodes", "benchout"} {
		if set[name] && !*scaleMode {
			return fmt.Errorf("-%s only applies to the deployment ladder; add -scale to run it", name)
		}
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel %d: need at least one measurement worker", *parallel)
	}

	// Both modes honour the profile flags.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "asapsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "asapsim: memprofile:", err)
			}
		}()
	}
	if *scaleMode {
		return runScaleLadder(*nodesFlag, *parallel, *benchOut)
	}

	profile, err := eval.ProfileByName(*profileName)
	if err != nil {
		return err
	}
	if *sessions > 0 {
		profile.Sessions = *sessions
	}
	if *seed != 0 {
		profile.Seed = *seed
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	wantFig := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	start := time.Now()
	fmt.Printf("== building world: profile=%s ases=%d hosts=%d sessions=%d seed=%d\n",
		profile.Name, profile.ASes, profile.Hosts, profile.Sessions, profile.Seed)
	w, err := eval.BuildWorld(profile)
	if err != nil {
		return err
	}
	fmt.Printf("   graph: %d ASes, %d links; population: %d hosts in %d clusters (%.1fs)\n",
		w.Graph.NumNodes(), w.Graph.NumEdges(), w.Pop.NumHosts(), w.Pop.NumClusters(),
		time.Since(start).Seconds())
	fmt.Printf("   clusters <= 100 hosts: %.1f%% (paper: ~90%%)\n\n", 100*w.Pop.SizeCDFAt(100))

	sess := w.RandomSessions(profile.Sessions)
	latent := w.LatentSessions(sess, netmodel.QualityRTT)
	fmt.Printf("== workload: %d sessions, %d latent (>300ms direct, %.2f%%; paper ~1%%)\n\n",
		len(sess), len(latent), 100*float64(len(latent))/float64(len(sess)))

	if wantFig("2a", "2b", "3a", "3b") {
		fmt.Println("== Section 3 routing study")
		st := eval.RunRoutingStudy(w, sess, *pairSample, netmodel.QualityRTT, *latentCap, *parallel)
		if wantFig("2a") {
			fmt.Println(st.FormatFig2a())
		}
		if wantFig("2b") {
			fmt.Println(st.FormatFig2b())
		}
		if wantFig("3a") {
			fmt.Println(st.FormatFig3a())
		}
		if wantFig("3b") {
			fmt.Println(st.FormatFig3b(netmodel.QualityRTT))
		}
		if *csvDir != "" {
			if err := st.WriteCSV(*csvDir); err != nil {
				return err
			}
		}
	}

	needCmp := wantFig("11", "12", "13", "14", "15", "16", "18")
	needScale := wantFig("17")
	if !needCmp && !needScale {
		return nil
	}

	k := *kFlag
	if k <= 0 {
		k = w.CalibrateK(sess, netmodel.QualityRTT, 0.9, 20000)
		fmt.Printf("== calibrated K = %d (90%% of sub-300ms paths; paper's rule gave 4 in 2005)\n", k)
	}
	used := latent
	if *latentCap > 0 && len(used) > *latentCap {
		used = used[:*latentCap]
	}
	cmp, err := runComparison(w, used, k, *dediN, *randN, *mixD, *mixR, true, *parallel)
	if err != nil {
		return err
	}
	if wantFig("11", "12") {
		fmt.Println(cmp.FormatFig11and12())
	}
	if wantFig("13", "14") {
		fmt.Println(cmp.FormatFig13and14())
	}
	if wantFig("15", "16") {
		fmt.Println(cmp.FormatFig15and16())
	}
	if wantFig("18") {
		fmt.Println(cmp.FormatFig18())
	}
	if *csvDir != "" {
		if err := cmp.WriteCSV(*csvDir); err != nil {
			return err
		}
	}

	if needScale {
		fmt.Printf("== Figure 17: same network, %.3fx population\n", *scaleRatio)
		bw, err := w.ScaledCopy(*scaleRatio)
		if err != nil {
			return err
		}
		big := bw.Profile
		bsess := bw.RandomSessions(big.Sessions)
		blatent := bw.LatentSessions(bsess, netmodel.QualityRTT)
		if *latentCap > 0 && len(blatent) > *latentCap {
			blatent = blatent[:*latentCap]
		}
		bcmp, err := runComparison(bw, blatent, k, *dediN, *randN, *mixD, *mixR, false, *parallel)
		if err != nil {
			return err
		}
		sc := eval.RunScalability(cmp, bcmp, *scaleRatio)
		fmt.Println(sc.Format())
		if *csvDir != "" {
			if err := sc.WriteCSV(*csvDir); err != nil {
				return err
			}
		}
	}

	fmt.Printf("== done in %.1fs\n", time.Since(start).Seconds())
	return nil
}

// scaleRung is one ladder entry of the BENCH_scale.json report.
type scaleRung struct {
	Nodes          int     `json:"nodes"`
	Shards         int     `json:"shards"`
	Clusters       int     `json:"clusters"`
	Events         uint64  `json:"events"`
	WallSeconds    float64 `json:"wall_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	BytesPerNode   float64 `json:"bytes_per_node"`
	PeakRSSBytes   int64   `json:"peak_rss_bytes"`
	Calls          int     `json:"calls"`
	Latent         int     `json:"latent"`
	Relayed        int     `json:"relayed"`
	Degraded       int     `json:"degraded"`
	Failed         int     `json:"failed"`
	MeanRelayEstMS float64 `json:"mean_relay_est_ms"`
}

type scaleBench struct {
	GeneratedUnix int64       `json:"generated_unix"`
	MaxNodes      int         `json:"max_nodes"`
	Rungs         []scaleRung `json:"rungs"`
}

// peakRSSBytes reads the process high-water resident set from the kernel.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // linux reports KiB
}

// runScaleLadder climbs 10^4 -> maxNodes, one full deployment per rung:
// every resident is a live core.Node joining over the bootstrap, a slice
// of the population churns out and rejoins mid-workload, and a call
// workload exercises direct, relayed, degraded and failed paths. Wall
// time is real; everything the protocol observes is virtual.
func runScaleLadder(maxNodes, shards int, outPath string) error {
	bench := scaleBench{GeneratedUnix: time.Now().Unix(), MaxNodes: maxNodes}
	var sizes []int
	for n := 10_000; n < maxNodes; n *= 10 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, maxNodes)
	fmt.Printf("== scale ladder: %v nodes, %d shards\n", sizes, shards)
	for _, n := range sizes {
		cfg := eval.ScaleConfig{
			Nodes:        n,
			Shards:       shards,
			Calls:        max(40, n/200),
			Leavers:      max(8, n/500),
			MeasureBytes: true,
		}
		start := time.Now()
		rep, err := eval.RunScale(cfg)
		if err != nil {
			return fmt.Errorf("rung %d: %w", n, err)
		}
		wall := time.Since(start).Seconds()
		rung := scaleRung{
			Nodes:        rep.Nodes,
			Shards:       rep.Shards,
			Clusters:     rep.Clusters,
			Events:       rep.Events,
			WallSeconds:  wall,
			EventsPerSec: float64(rep.Events) / wall,
			BytesPerNode: rep.BytesPerNode,
			PeakRSSBytes: peakRSSBytes(),
			Calls:        rep.Calls,
			Latent:       rep.Latent,
			Relayed:      rep.Relayed,
			Degraded:     rep.Degraded,
			Failed:       rep.Failed,
		}
		rung.MeanRelayEstMS = float64(rep.MeanRelayEst) / float64(time.Millisecond)
		bench.Rungs = append(bench.Rungs, rung)
		relayPct := 0.0
		if rep.Latent > 0 {
			relayPct = 100 * float64(rep.Relayed) / float64(rep.Latent)
		}
		fmt.Printf("   %8d nodes: %9d events in %6.1fs (%9.0f ev/s), %5.0f B/node, RSS %4d MB | calls %d, latent %d, relayed %.0f%% at %.1f ms est (fig 17 extension)\n",
			rep.Nodes, rep.Events, wall, rung.EventsPerSec, rep.BytesPerNode,
			rung.PeakRSSBytes>>20, rep.Calls, rep.Latent, relayPct, rung.MeanRelayEstMS)
	}
	data, err := json.MarshalIndent(&bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("== wrote %s (max-nodes %d)\n", outPath, maxNodes)
	return nil
}

func runComparison(w *eval.World, sessions []eval.Session, k, dediN, randN, mixD, mixR int, withOPT bool, workers int) (*eval.Comparison, error) {
	params := core.DefaultParams()
	params.K = k
	sys, err := w.NewASAP(params)
	if err != nil {
		return nil, err
	}
	d, r, m, err := w.NewBaselines(dediN, randN, mixD, mixR)
	if err != nil {
		return nil, err
	}
	methods := []eval.Method{
		eval.NewBaselineMethod(d, w.Engine),
		eval.NewBaselineMethod(r, w.Engine),
		eval.NewBaselineMethod(m, w.Engine),
		eval.NewASAPMethod(sys, w.Engine),
	}
	if withOPT {
		methods = append(methods, eval.NewOPTMethod(w.Engine))
	}
	fmt.Printf("== comparing %d methods on %d latent sessions (%d workers)\n", len(methods), len(sessions), workers)
	return eval.RunComparison(methods, sessions, w.Profile.Seed, workers), nil
}
