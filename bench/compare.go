package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare a.json b.json: a is the reference run set, b the candidate.
// For every workload x end-to-end metric it prints both medians and
// IQRs over the sets' untraced runs, the bound, and one of
//
//	ok          b's median is not worse than a's by more than the bound
//	worse       it is
//	unresolved  the run-to-run spread of either set is wider than the
//	            bound, so "not worse" cannot be told from noise — unless
//	            every run of b reads better than every run of a
//
// Zero-bound metrics and the outcome digest must be identical in every
// run of both sets.

func loadSummary(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// untracedValues collects one metric's per-run values for a workload.
func untracedValues(s *Summary, workload, metric string) []float64 {
	var out []float64
	for _, run := range s.Runs {
		for _, r := range run {
			if r.Workload == workload && !r.Traced {
				if st, ok := r.Metrics[metric]; ok {
					out = append(out, st.Value)
				}
			}
		}
	}
	return out
}

func digests(s *Summary, workload string) map[string]bool {
	out := map[string]bool{}
	for _, run := range s.Runs {
		for _, r := range run {
			if r.Workload == workload {
				out[r.Digest] = true
			}
		}
	}
	return out
}

// verdict applies the rule above to one metric's two value sets.
func verdict(m Metric, a, b []float64) string {
	ma, mb := median(a), median(b)
	sign := 1.0 // lower is better: worse means larger
	if m.Better == "higher" {
		sign = -1
	}
	if m.Bound == 0 {
		if !allEqual(a) || !allEqual(b) {
			return "unresolved" // an exact metric that does not repeat
		}
		if sign*(mb-ma) > 0 {
			return "worse"
		}
		return "ok"
	}
	base := ma
	if base < 0 {
		base = -base
	}
	if sign*(mb-ma) > m.Bound*base {
		return "worse"
	}
	a1, _, a3 := quartiles(a)
	b1, _, b3 := quartiles(b)
	if base > 0 && ((a3-a1)/base > m.Bound || (b3-b1)/base > m.Bound) {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if sign*(x-y) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

func allEqual(vals []float64) bool {
	for _, v := range vals {
		if v != vals[0] {
			return false
		}
	}
	return true
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadSummary(pathA)
	if err == nil {
		var b *Summary
		if b, err = loadSummary(pathB); err == nil {
			return compareSummaries(w, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareSummaries(w io.Writer, a, b *Summary) int {
	fmt.Fprintf(w, "reference: %d run(s), seed %d   candidate: %d run(s), seed %d\n", len(a.Runs), a.Seed, len(b.Runs), b.Seed)
	if a.Seed != b.Seed {
		fmt.Fprintln(w, "note: the sets used different seeds; zero-bound metrics and digests are expected to differ")
	}
	counts := map[string]int{}
	for _, wl := range Workloads {
		fmt.Fprintf(w, "\n%s\n  %-22s %14s %10s %14s %10s %7s  %s\n", wl.Name,
			"metric", "ref median", "ref IQR", "cand median", "cand IQR", "bound", "verdict")
		for _, m := range EndToEnd {
			if !m.appliesTo(wl.Name) {
				continue
			}
			va, vb := untracedValues(a, wl.Name, m.Name), untracedValues(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			counts[v]++
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(w, "  %-22s %14.6g %10.3g %14.6g %10.3g %7s  %s\n",
				m.Name, a2, a3-a1, b2, b3-b1, fmtBound(m.Bound), v)
		}
		da, db := digests(a, wl.Name), digests(b, wl.Name)
		same := len(da) == 1 && len(db) == 1
		for d := range da {
			same = same && db[d]
		}
		v := "ok"
		if !same && a.Seed == b.Seed {
			v = "differs"
			counts["digest-differs"]++
		}
		fmt.Fprintf(w, "  %-22s %s\n", "outcome_digest", v)
	}
	fmt.Fprintf(w, "\nok %d, worse %d, unresolved %d, digest differs %d\n",
		counts["ok"], counts["worse"], counts["unresolved"], counts["digest-differs"])
	if counts["worse"] > 0 || counts["unresolved"] > 0 {
		return 1
	}
	return 0
}
