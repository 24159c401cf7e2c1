package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	s := Summarize(xs)
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if Summarize(nil).Count != 0 {
		t.Error("empty summary should have Count 0")
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%.1f) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty should be NaN")
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{100, 200, 300, 400}
	if f := FractionAtMost(xs, 250); f != 0.5 {
		t.Errorf("FractionAtMost = %g", f)
	}
	if f := FractionAbove(xs, 300); f != 0.25 {
		t.Errorf("FractionAbove = %g", f)
	}
	if FractionAtMost(nil, 1) != 0 || FractionAbove(nil, 1) != 0 {
		t.Error("empty fractions should be 0")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := NewHistogram(xs, 5)
	if len(h.Counts) != 5 {
		t.Fatalf("bins = %d", len(h.Counts))
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != len(xs) {
		t.Errorf("histogram total = %d, want %d", total, len(xs))
	}
	// Constant input must not divide by zero.
	h2 := NewHistogram([]float64{5, 5, 5}, 3)
	if h2.Counts[0] != 3 {
		t.Errorf("constant histogram = %v", h2.Counts)
	}
	if len(NewHistogram(nil, 3).Counts) != 0 {
		t.Error("empty histogram should have no buckets")
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean of no samples should be NaN")
	}
}

// Property: the empirical CDF FractionAtMost is 0 below the smallest
// sample, 1 at the largest, strictly rising across distinct samples,
// complemented by FractionAbove, and never mutates its input.
func TestCDFProperties(t *testing.T) {
	check := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		orig := make([]float64, len(xs))
		copy(orig, xs)
		s := make([]float64, len(xs))
		copy(s, xs)
		sort.Float64s(s)
		for i, x := range s {
			if math.Abs(FractionAtMost(xs, x)+FractionAbove(xs, x)-1) > 1e-12 {
				return false
			}
			if i > 0 && x > s[i-1] && FractionAtMost(xs, x) <= FractionAtMost(xs, s[i-1]) {
				return false
			}
		}
		for i := range xs {
			if xs[i] != orig[i] {
				return false
			}
		}
		if len(xs) == 0 {
			return FractionAtMost(xs, 0) == 0 && FractionAbove(xs, 0) == 0
		}
		return FractionAtMost(xs, s[len(s)-1]) == 1 && FractionAtMost(xs, math.Nextafter(s[0], math.Inf(-1))) == 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: Quantile is monotone in q and bounded by min/max.
func TestQuantileProperties(t *testing.T) {
	check := func(xs []float64, q1, q2 float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(xs, q1), Quantile(xs, q2)
		if v1 > v2 {
			return false
		}
		s := make([]float64, len(xs))
		copy(s, xs)
		sort.Float64s(s)
		return v1 >= s[0] && v2 <= s[len(s)-1]
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
