// Package sim provides deterministic simulation primitives shared by all
// ASAP substrates: a seedable random number generator, a virtual clock, and
// message/probe accounting. Every source of randomness in the repository
// flows through sim.RNG so that experiments are reproducible bit-for-bit
// for a given seed.
package sim

import (
	"math"
	"math/rand"
	"sort"
)

// RNG is a deterministic random number generator. It wraps math/rand with
// distribution helpers used by the topology and workload generators.
//
// RNG is not safe for concurrent use; create one per goroutine with Split.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Reseed restarts the generator as NewRNG(seed) would start a new one,
// without allocating: a caller that needs a fresh stream per unit of work
// keeps one RNG and reseeds it.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent's state, so splitting is itself
// reproducible.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Intn returns an integer in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a float in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Uniform returns a float uniformly distributed in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a normally distributed float with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Exponential returns an exponentially distributed float with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Pareto returns a Pareto-distributed float with minimum xm and shape alpha.
// Heavy-tailed distributions like this one model cluster sizes and access
// link delays.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// ZipfTable samples ranks [1, n] with Zipf-like frequency (rank 1 most
// frequent; skew s, s=0 uniform) by inverse CDF: the weights 1/i^s are
// summed once, in rank order, and a sample is one draw and a binary
// search — a population takes tens of thousands over thousands of ranks.
type ZipfTable []float64

// NewZipfTable sums the series for n ranks with skew s.
func NewZipfTable(n int, s float64) ZipfTable {
	t := make(ZipfTable, max(n, 0))
	var acc float64
	for i := range t {
		acc += 1 / math.Pow(float64(i+1), s)
		t[i] = acc
	}
	return t
}

// Sample returns the first rank whose cumulative weight reaches a uniform
// target below the total; with at most one rank it is 1 and draws nothing.
func (t ZipfTable) Sample(g *RNG) int {
	n := len(t)
	if n <= 1 {
		return 1
	}
	return min(sort.SearchFloat64s(t, g.r.Float64()*t[n-1])+1, n)
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Sample returns k distinct integers drawn uniformly from [0, n).
// If k >= n it returns a permutation of all n integers.
func (g *RNG) Sample(n, k int) []int {
	if k >= n {
		return g.r.Perm(n)
	}
	// Floyd's algorithm: O(k) expected time, no O(n) allocation.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := g.r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
