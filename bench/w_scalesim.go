package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"asap/internal/bgp"
	"asap/internal/eval"
	"asap/internal/sim"
)

// scale_sim: the engine under everything. One repetition is one
// eval.RunScale deployment — joins, lease churn and a small call
// workload at population — and one operation is one executed virtual
// event. sim.Clock task hand-off and core join cost dominate; per-call
// work is negligible, the opposite balance to call_sim.
//
// The harness's deployment is a pure function of its config (the seed
// only roots retry jitter), so the benchmark seed also perturbs the
// population by up to 255 nodes (about 3 %): different seeds then run
// different deployments of the same size class.

const (
	scaleNodes      = 8000
	scaleNodesSmoke = 600
	scaleCalls      = 100
	scaleLeavers    = 40
)

type scaleSim struct {
	e       *env
	cfg     eval.ScaleConfig
	digests []string // per measured repetition
	last    *eval.ScaleReport
	shard2  *eval.ScaleReport
	shard2S float64 // wall seconds of the 2-shard run
	shard1S []float64
}

func newScaleSim(e *env) *scaleSim {
	nodes, calls, leavers := scaleNodes, scaleCalls, scaleLeavers
	if e.smoke {
		nodes, calls, leavers = scaleNodesSmoke, 20, 12
	}
	nodes += int(uint64(sim.SubSeed(e.seed, sim.StringLabel(wScaleSim))) % 256)
	return &scaleSim{e: e, cfg: eval.ScaleConfig{
		Nodes: nodes, Shards: 1, Calls: calls, Leavers: leavers,
		Seed: e.seed, RecordOutcomes: true,
	}}
}

func (w *scaleSim) repSeconds() float64 { return 0.65 }

func (w *scaleSim) setup() error { return nil }

func (w *scaleSim) rep(i int) (int64, int64, error) {
	tr := w.e.tr
	op := tr.beginOp("bench", "scale_run")
	id := tr.begin("eval", "run_scale")
	t0 := time.Now()
	rep, err := eval.RunScale(w.cfg)
	el := time.Since(t0)
	tr.end(id)
	tr.end(op)
	if err != nil {
		return 0, 0, err
	}
	if i >= 1 {
		w.last = rep
		w.shard1S = append(w.shard1S, el.Seconds())
		if i <= pinnedReps {
			w.digests = append(w.digests, scaleDigest(rep))
		}
	}
	// A failed call is a failed operation; events themselves cannot fail.
	return int64(rep.Events), int64(rep.Failed), nil
}

// scaleDigest hashes the harness's golden outcome lines together with the
// population they were produced at (the event count is left out: cross-
// shard hand-offs are events too, so it varies with the shard count).
func scaleDigest(rep *eval.ScaleReport) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%snodes=%d\n", rep.GoldenDigest(), rep.Nodes)))
	return hex.EncodeToString(sum[:])
}

func (w *scaleSim) finish(res *Result) {
	// One extra untimed deployment at two shards, with the byte audit:
	// the outcomes must match the single-shard runs line for line.
	cfg := w.cfg
	cfg.Shards = 2
	cfg.MeasureBytes = true
	t0 := time.Now()
	rep2, err := eval.RunScale(cfg)
	w.shard2S = time.Since(t0).Seconds()
	if err != nil {
		res.check("scale_sim.two_shard_run", false, "%v", err)
		return
	}
	w.shard2 = rep2
	res.Digest = w.digests[0]
	same := true
	for _, d := range w.digests {
		same = same && d == w.digests[0]
	}
	res.check("scale_sim.digest_repeats", same, "outcome digests differ across repetitions: %v", w.digests)
	res.check("scale_sim.digest_shards", scaleDigest(rep2) == w.digests[0], "outcomes at 2 shards differ from 1 shard")
	res.check("scale_sim.no_failed_calls", w.last.Failed == 0, "%d of %d calls failed", w.last.Failed, w.last.Calls)
	res.check("scale_sim.calls_have_path", w.last.Latent > 0 && w.last.Relayed+w.last.Degraded <= w.last.Calls,
		"latent=%d relayed=%d degraded=%d", w.last.Latent, w.last.Relayed, w.last.Degraded)

	res.Metrics["live_heap_mb"] = exact(rep2.BytesPerNode*float64(cfg.Nodes)/1e6, "MB")
	res.Metrics["failed_ops_ratio"] = exact(float64(w.last.Failed)/float64(w.last.Calls), "ratio")
	if w.last.Latent > 0 {
		res.Metrics["rescued_ratio"] = exact(float64(w.last.Relayed)/float64(w.last.Latent), "ratio")
	}
	res.Counts["nodes"] = float64(cfg.Nodes)
	res.Counts["events_per_rep"] = float64(w.last.Events)
	res.Counts["calls"] = float64(w.last.Calls)
	res.Counts["latent_calls"] = float64(w.last.Latent)
	res.Counts["bytes_per_node"] = rep2.BytesPerNode
}

func (w *scaleSim) teardown() {}

func (w *scaleSim) probes(res *Result, sum *traceSummary) {
	run := sum.get("eval.run_scale")
	if sum.opWall > 0 {
		res.layer("trace.span_coverage", float64(run.total)/float64(sum.opWall))
	}
	if w.shard2 != nil {
		eq := 0.0
		if scaleDigest(w.shard2) == w.digests[0] {
			eq = 1
		}
		res.layer("sim.shard_digest_equal", eq)
		res.layer("sim.shard2_wall_ratio", w.shard2S/median(w.shard1S))
	}

	// sim.timer_event_ns: AfterFunc + Step, the cheapest event there is.
	clk := sim.NewClock()
	fired := 0
	ns, _ := probeMedian(5, 20000, func(int) {
		clk.AfterFunc(time.Millisecond, func() { fired++ })
		clk.Step()
	})
	res.layer("sim.timer_event_ns", ns)
	res.check("sim.timer_events_fired", fired == 5*20000, "fired %d", fired)

	// sim.task_handoff_us: two tasks ping-ponging Waiter.Wake/Wait — the
	// park/wake pair every blocking call in a handler pays.
	const rounds = 4000
	handoff := make([]float64, 5)
	for r := range handoff {
		clk := sim.NewClock()
		toA, toB := make([]sim.Waiter, rounds), make([]sim.Waiter, rounds)
		for k := range toA {
			toA[k], toB[k] = clk.NewWaiter(), clk.NewWaiter()
		}
		t0 := time.Now()
		clk.RunTask(func() {
			clk.Go(func() {
				for k := 0; k < rounds; k++ {
					toB[k].Wait(-1)
					toA[k].Wake()
				}
			})
			for k := 0; k < rounds; k++ {
				toB[k].Wake()
				toA[k].Wait(-1)
			}
		})
		// One round is two hand-offs (A parks, B runs, B parks, A runs).
		handoff[r] = float64(time.Since(t0).Nanoseconds()) / 1e3 / (2 * rounds)
	}
	res.layer("sim.task_handoff_us", median(handoff))

	// sim.join_fanout_us: Join(8, ...) of trivial tasks.
	fan := make([]float64, 5)
	for r := range fan {
		clk := sim.NewClock()
		fns := make([]func(), 8)
		n := 0
		for k := range fns {
			fns[k] = func() { n++ }
		}
		t0 := time.Now()
		clk.RunTask(func() {
			for k := 0; k < 500; k++ {
				clk.Join(8, fns...)
			}
		})
		fan[r] = float64(time.Since(t0).Nanoseconds()) / 1e3 / 500
	}
	res.layer("sim.join_fanout_us", median(fan))

	// bgp.trie_lookup_ns: the longest-prefix match every join performs at
	// the bootstrap, on a table the size of the deployment's.
	var trie bgp.Trie
	var addrs []bgp.Addr
	for c := 0; c < 512; c++ {
		p, err := bgp.ParsePrefix(fmt.Sprintf("10.%d.%d.0/24", c/256, c%256))
		if err != nil {
			continue
		}
		trie.Insert(p, 100)
		addrs = append(addrs, p.Nth(7))
	}
	miss := 0
	ns, _ = probeMedian(5, 50000, func(i int) {
		if _, _, ok := trie.Lookup(addrs[i%len(addrs)]); !ok {
			miss++
		}
	})
	res.layer("bgp.trie_lookup_ns", ns)
	res.check("bgp.trie_lookup_hits", miss == 0, "%d lookups missed", miss)
}
