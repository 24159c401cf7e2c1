package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// env is what a workload is built from: the seed, the size, and the
// tracer (nil in an untraced run).
type env struct {
	seed  int64
	smoke bool
	tr    *tracer
}

// pinnedReps is how many measured repetitions feed the exact metrics and
// the outcome digest. A run always executes at least this many, so those
// values depend on the seed alone, never on -seconds or machine speed.
const pinnedReps = 5

// workload is one of the five benchmark workloads. The runner drives it:
// setup, rep(0) as the discarded warm-up, rep(1..R) measured, finish,
// probes (a traced run only), teardown. A repetition executes a fixed number of operations, so
// counts repeat exactly.
type workload interface {
	// setup builds the deployment the operations run against.
	setup() error
	// rep runs repetition i and returns operations attempted and failed.
	rep(i int) (ops, failed int64, err error)
	// repSeconds is the nominal wall time of one repetition at the seed
	// commit on the reference box; -seconds / repSeconds sets R.
	repSeconds() float64
	// finish folds the exact metrics, the digest and the correctness
	// checks of the pinned repetitions into res. Called before teardown.
	finish(res *Result)
	// probes adds the per-layer rows of a traced run: span-derived rows
	// from sum and isolated probes of the layers the driver never calls.
	probes(res *Result, sum *traceSummary)
	// teardown releases the deployment.
	teardown()
}

// Result is one workload's run.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Smoke     bool               `json:"smoke,omitempty"`
	Traced    bool               `json:"traced"`
	Reps      int                `json:"reps"`
	OpsPerRep int64              `json:"ops_per_rep"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]Stat    `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Counts    map[string]float64 `json:"counts,omitempty"`
	Digest    string             `json:"outcome_digest"`
	Checks    []Check            `json:"checks"`
	TraceFile string             `json:"trace_file,omitempty"`
	WallS     float64            `json:"run_wall_s"`
}

func (r *Result) check(name string, ok bool, format string, args ...interface{}) {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *Result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *Result) layer(name string, v float64) { r.Layers[name] = v }

type runOptions struct {
	seed     int64
	seconds  float64
	smoke    bool
	traced   bool
	traceOut string
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case wCallSim:
		return newCallSim(e), nil
	case wSelectSmall:
		return newSelectSmall(e), nil
	case wVoiceStream:
		return newVoiceStream(e), nil
	case wLiveTCP:
		return newLiveTCP(e), nil
	case wScaleSim:
		return newScaleSim(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// An untraced full-size run sets up at least setupSamples times, and keeps
// going (up to setupSamplesMax) while the set-ups so far took less than
// setupBudget in all: the reported setup_s is their median, and a 0.1 s
// set-up needs more samples than a 3 s one before that median holds still.
const (
	setupSamples    = 3
	setupSamplesMax = 9
	setupBudget     = 1500 * time.Millisecond
)

// runWorkload executes one workload in this process.
func runWorkload(name string, opt runOptions) (*Result, error) {
	e := &env{seed: opt.seed, smoke: opt.smoke}
	if opt.traced {
		e.tr = newTracer()
	}
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workload: name, Seed: opt.seed, Smoke: opt.smoke, Traced: opt.traced,
		Metrics: make(map[string]Stat), Layers: make(map[string]float64), Counts: make(map[string]float64),
	}

	// Set-up: deployment build plus the warm-up repetition, sampled
	// several times; the last deployment is the one measured.
	var setups []float64
	setupStart := time.Now()
	for s := 0; ; s++ {
		t0 := time.Now()
		if s == 0 {
			t0 = processStart
		}
		e.tr.set(true) // a traced run's set-up is traced; its warm-up is not
		err := w.setup()
		e.tr.set(false)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		if _, _, err := w.rep(0); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		n := len(setups)
		if opt.smoke || opt.traced || n >= setupSamplesMax ||
			(n >= setupSamples && time.Since(setupStart) >= setupBudget) {
			break
		}
		w.teardown()
		runtime.GC()
	}
	res.Metrics["setup_s"] = statOf(setups, "s")

	// Measured repetitions. R is fixed by -seconds alone; the wall-clock
	// valve only stops a run on a box far slower than the reference one,
	// and never before the pinned repetitions are done.
	target := int(opt.seconds/w.repSeconds() + 0.5)
	if target < pinnedReps {
		target = pinnedReps
	}
	if opt.smoke {
		target = 2
	}
	var samples []repSample
	start := time.Now()
	for i := 1; i <= target; i++ {
		if i > pinnedReps && time.Since(start).Seconds() > 2.5*opt.seconds {
			break
		}
		// A traced run alternates traced and untraced repetitions in one
		// process, so trace.overhead_ratio compares like with like.
		traced := opt.traced && i%2 == 1
		e.tr.set(traced)
		s, err := measureRep(func() (int64, int64, error) { return w.rep(i) })
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", name, i, err)
		}
		s.traced = traced
		samples = append(samples, s)
		res.Attempted += s.ops
		res.Failed += s.failed
	}
	e.tr.set(false)
	res.Reps = len(samples)
	res.OpsPerRep = samples[0].ops
	foldSamples(res, samples, opt.traced)
	res.Metrics["live_heap_mb"] = exact(liveHeapMB(), "MB")
	res.Metrics["failed_ops_ratio"] = exact(float64(res.Failed)/float64(res.Attempted), "ratio")

	w.finish(res)
	if opt.traced {
		sum := e.tr.analyse()
		res.check("trace.well_formed", len(sum.malformed) == 0, "%v", sum.malformed)
		res.Counts["spans"] = float64(len(e.tr.spans))
		res.Counts["spans_cut_at_parent_end"] = float64(sum.cut)
		w.probes(res, sum)
		if opt.traceOut != "" {
			if err := e.tr.writeJSONL(opt.traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "bench: trace not written: %v\n", err)
			} else {
				res.TraceFile = opt.traceOut
			}
		}
	}
	w.teardown()
	res.WallS = time.Since(processStart).Seconds()
	return res, nil
}

// foldSamples turns the repetition samples into the timed end-to-end
// metrics (medians with IQR) and the process rows of a traced run.
func foldSamples(res *Result, samples []repSample, tracedRun bool) {
	var wall, user, sys, allocs, bytes []float64
	var wallTraced []float64
	var gcCycles, gcPause float64
	for _, s := range samples {
		ops := float64(s.ops)
		gcCycles += float64(s.gcCycles)
		gcPause += float64(s.gcPause) / 1e6
		if s.traced {
			wallTraced = append(wallTraced, float64(s.wall.Nanoseconds())/1e3/ops)
			continue // end-to-end numbers never come from a traced repetition
		}
		wall = append(wall, float64(s.wall.Nanoseconds())/1e3/ops)
		user = append(user, float64(s.user.Nanoseconds())/1e3/ops)
		sys = append(sys, float64(s.sys.Nanoseconds())/1e3/ops)
		allocs = append(allocs, float64(s.mallocs)/ops)
		bytes = append(bytes, float64(s.bytes)/ops)
	}
	res.Metrics["wall_us_per_op"] = fastestStat(wall, "us")
	res.Metrics["user_cpu_us_per_op"] = statOf(user, "us")
	res.Metrics["allocs_per_op"] = statOf(allocs, "count")
	res.Metrics["bytes_per_op"] = statOf(bytes, "B")
	if tracedRun {
		res.layer("proc.sys_cpu_us_per_op", median(sys))
		res.layer("proc.gc_cycles", gcCycles)
		res.layer("proc.gc_pause_ms", gcPause)
		if len(wallTraced) > 0 && len(wall) > 0 {
			res.layer("trace.overhead_ratio", fastestStat(wallTraced, "us").Value/fastestStat(wall, "us").Value)
		}
	}
}
