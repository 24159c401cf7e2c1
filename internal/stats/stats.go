// Package stats provides the small statistical toolkit the evaluation
// harness needs to regenerate the paper's figures: empirical CDF values
// (FractionAtMost, FractionAbove), percentiles, histograms, and summary
// statistics. Everything operates on float64 slices and never mutates its
// input.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual five-number summary plus mean and count.
type Summary struct {
	Count  int
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P99    float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for empty
// input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sortedCopy(xs)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return Summary{
		Count:  len(s),
		Min:    s[0],
		P25:    quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		P75:    quantileSorted(s, 0.75),
		P90:    quantileSorted(s, 0.90),
		P99:    quantileSorted(s, 0.99),
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
	}
}

// String renders the summary compactly for reports.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f p25=%.2f med=%.2f p75=%.2f p90=%.2f p99=%.2f max=%.2f mean=%.2f",
		s.Count, s.Min, s.P25, s.Median, s.P75, s.P90, s.P99, s.Max, s.Mean)
}

func sortedCopy(xs []float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantileSorted(sortedCopy(xs), q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// FractionAtMost returns the fraction of samples <= x.
func FractionAtMost(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range xs {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionAbove returns the fraction of samples > x.
func FractionAbove(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return 1 - FractionAtMost(xs, x)
}

// Histogram divides [min(xs), max(xs)] into bins equal-width buckets and
// returns the count in each. Edges[i] is the lower edge of bucket i.
type Histogram struct {
	Edges  []float64
	Counts []int
	Width  float64
}

// NewHistogram builds a histogram of xs with the given number of bins.
// It returns an empty histogram for empty input or bins < 1.
func NewHistogram(xs []float64, bins int) Histogram {
	if len(xs) == 0 || bins < 1 {
		return Histogram{}
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	width := (hi - lo) / float64(bins)
	if width == 0 {
		width = 1
	}
	h := Histogram{
		Edges:  make([]float64, bins),
		Counts: make([]int, bins),
		Width:  width,
	}
	for i := range h.Edges {
		h.Edges[i] = lo + float64(i)*width
	}
	for _, x := range xs {
		b := int((x - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		h.Counts[b]++
	}
	return h
}

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
