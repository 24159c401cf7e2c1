// Command bench is the repository's benchmark: five workloads over the
// placed call and the layers under it, twelve end-to-end metrics from an
// untraced run, and a per-layer ledger from a separate traced run in
// which every layer is timed from outside, through its public functions.
//
//	go run . -seed 1                 all five workloads, untraced
//	go run . -seed 1 -trace 1        ... then each again traced
//	go run . -workload live_tcp      one workload in this process
//	go run . -list                   every workload and metric name
//	go run . -compare a.json b.json  two run sets against the bounds
//
// (run from this directory; bench/run.sh builds and runs it from the
// repository root for the driver). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// logw receives diagnostics; results go to standard output.
var logw io.Writer = os.Stderr

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process (default: all five, one child process each)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", runSeconds, "nominal measured time per workload; sets the repetition count")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
		traceOut     = flag.String("trace-out", "", "span file (JSONL); default .bench_build/trace/<workload>-<seed>.jsonl")
		smoke        = flag.Bool("smoke", false, "tiny size of every workload, for self-tests")
		list         = flag.Bool("list", false, "print every workload and metric and exit")
		compare      = flag.Bool("compare", false, "compare two run-set files: -compare a.json b.json")
		runs         = flag.Int("runs", 1, "suite mode: how many times to run the suite (a run set)")
		out          = flag.String("out", "", "suite mode: write the JSON summary here")
	)
	flag.Parse()

	switch {
	case *list:
		printList(os.Stdout)
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workloadName == "":
		return runSuite(suiteOptions{
			seed: *seed, seconds: *seconds, traced: *trace != 0, smoke: *smoke, runs: *runs, out: *out,
		})
	}

	opt := runOptions{seed: *seed, seconds: *seconds, smoke: *smoke, traced: *trace != 0, traceOut: *traceOut}
	if opt.traced && opt.traceOut == "" {
		opt.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", *workloadName, *seed))
	}
	res, err := runWorkload(*workloadName, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printResult(os.Stdout, res)
	full, _ := json.Marshal(res)
	fmt.Printf("RESULT %s\n", full)
	// The driver's contract: the last line of standard output is one JSON
	// object with exactly correct, attempted, failed and metrics.
	fmt.Println(contractLine(res))
	if !res.correct() {
		return 1
	}
	return 0
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders a result the way BENCHMARK.json promises: every
// end_to_end metric for an untraced run, every per_layer metric for a
// traced one (0 where the workload does not cross the layer).
func contractLine(res *Result) string {
	metrics := make(map[string]contractValue)
	if !res.Traced {
		for _, m := range EndToEnd[:contractEndToEnd] {
			metrics[m.Name] = contractValue{res.Metrics[m.Name].Value, m.Unit}
		}
	} else {
		for _, m := range contractPerLayer() {
			v := res.Layers[m.Name]
			if m.Layer == "call" {
				v = res.Metrics[m.Name[len("call."):]].Value
			}
			metrics[m.Name] = contractValue{v, m.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	return string(line)
}

// printResult prints one workload's numbers for a human.
func printResult(w io.Writer, res *Result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %d repetitions x %d ops  (%.1f s)\n",
		res.Workload, res.Seed, mode, res.Reps, res.OpsPerRep, res.WallS)
	if res.Workload == wLiveTCP {
		fmt.Fprintln(w, "   traffic crosses the host's LOOPBACK interface, not a real link")
	}
	for _, m := range EndToEnd {
		st, ok := res.Metrics[m.Name]
		if !ok || !m.appliesTo(res.Workload) {
			continue
		}
		spread := ""
		if st.N > 1 {
			spread = fmt.Sprintf("  IQR %.4g (n=%d)", st.IQR, st.N)
		}
		fmt.Fprintf(w, "   %-22s %14.6g %-10s%s\n", m.Name, st.Value, m.Unit, spread)
	}
	fmt.Fprintf(w, "   %-22s %s\n", "outcome_digest", res.Digest)
	if res.Traced {
		fmt.Fprintln(w, "   -- per-layer (this workload's rows)")
		for _, m := range PerLayer {
			if v, ok := res.Layers[m.Name]; ok {
				fmt.Fprintf(w, "   %-38s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
		if res.TraceFile != "" {
			fmt.Fprintf(w, "   spans written to %s\n", res.TraceFile)
		}
	}
	for _, k := range sortedKeys(res.Counts) {
		fmt.Fprintf(w, "   (%s = %g)\n", k, res.Counts[k])
	}
	bad := 0
	for _, c := range res.Checks {
		if !c.OK {
			bad++
			fmt.Fprintf(w, "   CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "   checks: %d run, %d failed\n", len(res.Checks), bad)
}
