package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	parent := NewRNG(1)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 50; i++ {
		if c1.Int63() == c2.Int63() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("split children correlated: %d/50 equal draws", same)
	}
}

// TestRNGReseedMatchesNewRNG: a used generator, reseeded, draws exactly
// the stream a new generator with that seed draws, through every helper
// a caller reaches.
func TestRNGReseedMatchesNewRNG(t *testing.T) {
	g := NewRNG(99)
	for _, seed := range []int64{1, 0, -5, SubSeed(1, 42), SubSeed(7, 1936)} {
		for i := 0; i < 37; i++ { // leave the old stream mid-way
			g.Normal(0, 1)
			g.Intn(1 + i)
		}
		g.Reseed(seed)
		want := NewRNG(seed)
		for i := 0; i < 500; i++ {
			if a, b := g.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d draw %d: Int63 %d after Reseed, %d from NewRNG", seed, i, a, b)
			}
			if a, b := g.Normal(0, 0.08), want.Normal(0, 0.08); a != b {
				t.Fatalf("seed %d draw %d: Normal %g after Reseed, %g from NewRNG", seed, i, a, b)
			}
			if a, b := g.Bool(0.7), want.Bool(0.7); a != b {
				t.Fatalf("seed %d draw %d: Bool %v after Reseed, %v from NewRNG", seed, i, a, b)
			}
			if a, b := g.Intn(1000), want.Intn(1000); a != b {
				t.Fatalf("seed %d draw %d: Intn %d after Reseed, %d from NewRNG", seed, i, a, b)
			}
			if a, b := g.Exponential(3), want.Exponential(3); a != b {
				t.Fatalf("seed %d draw %d: Exponential %g after Reseed, %g from NewRNG", seed, i, a, b)
			}
		}
		if a, b := g.Perm(40), want.Perm(40); !slices.Equal(a, b) {
			t.Fatalf("seed %d: Perm %v after Reseed, %v from NewRNG", seed, a, b)
		}
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform(10,20) = %g out of range", v)
		}
	}
}

func TestRNGParetoProperties(t *testing.T) {
	g := NewRNG(4)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := g.Pareto(1, 2)
		if v < 1 {
			t.Fatalf("Pareto(1,2) = %g < xm", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	// E[X] = alpha*xm/(alpha-1) = 2 for xm=1, alpha=2.
	if math.Abs(mean-2) > 0.25 {
		t.Errorf("Pareto mean = %.3f, want ~2", mean)
	}
}

func TestRNGZipfSkew(t *testing.T) {
	g := NewRNG(5)
	counts := make([]int, 11)
	for i := 0; i < 10000; i++ {
		r := g.Zipf(10, 1.0)
		if r < 1 || r > 10 {
			t.Fatalf("Zipf out of range: %d", r)
		}
		counts[r]++
	}
	if counts[1] <= counts[10] {
		t.Errorf("Zipf not skewed: rank1=%d rank10=%d", counts[1], counts[10])
	}
	if g.Zipf(1, 1.0) != 1 || g.Zipf(0, 1.0) != 1 {
		t.Error("Zipf(n<=1) should return 1")
	}
}

// zipfLinear is the sampler RNG.Zipf was before the cumulative table: the
// series summed and rescanned on every draw. Kept verbatim as the
// reference ZipfTable must match draw for draw.
func zipfLinear(g *RNG, n int, s float64) int {
	if n <= 1 {
		return 1
	}
	var total float64
	for i := 1; i <= n; i++ {
		total += 1 / math.Pow(float64(i), s)
	}
	target := g.r.Float64() * total
	var cum float64
	for i := 1; i <= n; i++ {
		cum += 1 / math.Pow(float64(i), s)
		if cum >= target {
			return i
		}
	}
	return n
}

// constSource is a rand.Source stuck on one value.
type constSource int64

func (c constSource) Int63() int64 { return int64(c) }
func (constSource) Seed(int64)     {}

func TestZipfTableMatchesLinearScan(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 1937, 7173} {
		for _, s := range []float64{0, 0.75, 1, 2} {
			table := NewZipfTable(n, s)
			for seed := int64(1); seed <= 3; seed++ {
				ref, tab, one := NewRNG(seed), NewRNG(seed), NewRNG(seed)
				for i := 0; i < 200; i++ {
					want := zipfLinear(ref, n, s)
					if got := table.Sample(tab); got != want {
						t.Fatalf("n=%d s=%g seed=%d draw %d: table %d, linear scan %d", n, s, seed, i, got, want)
					}
					if got := one.Zipf(n, s); got != want {
						t.Fatalf("n=%d s=%g seed=%d draw %d: Zipf %d, linear scan %d", n, s, seed, i, got, want)
					}
				}
				// Same draws consumed: the streams are still in step.
				if ref.Int63() != tab.Int63() {
					t.Fatalf("n=%d s=%g seed=%d: table and linear scan consumed different draws", n, s, seed)
				}
			}
		}
	}
	// Float64 of the draw 1<<62 is exactly 0.5; at s=0 the weights are all
	// 1, so the target lands exactly on the cumulative value n/2 and the
	// first rank that reaches it — not the one after — is the sample.
	for _, n := range []int{2, 10, 1938} {
		half := func() *RNG { return &RNG{r: rand.New(constSource(1 << 62))} }
		want := zipfLinear(half(), n, 0)
		if got := NewZipfTable(n, 0).Sample(half()); got != want || got != n/2 {
			t.Errorf("n=%d target on a cumulative value: table %d, linear scan %d, want %d", n, got, want, n/2)
		}
	}
}

func TestRNGSample(t *testing.T) {
	g := NewRNG(6)
	check := func(n, k int) bool {
		if n < 0 || n > 500 || k < 0 || k > 500 {
			return true
		}
		s := g.Sample(n, k)
		wantLen := k
		if k >= n {
			wantLen = n
		}
		if len(s) != wantLen {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClockOrdering(t *testing.T) {
	var c Clock
	var order []int
	c.After(30*time.Millisecond, func() { order = append(order, 3) })
	c.After(10*time.Millisecond, func() { order = append(order, 1) })
	c.After(20*time.Millisecond, func() { order = append(order, 2) })
	n := c.Run()
	if n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if c.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", c.Now())
	}
}

func TestClockEqualTimeFIFO(t *testing.T) {
	var c Clock
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(time.Second, func() { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of schedule order: %v", order)
		}
	}
}

func TestClockCascade(t *testing.T) {
	var c Clock
	hits := 0
	var tick func()
	tick = func() {
		hits++
		if hits < 5 {
			c.After(time.Second, tick)
		}
	}
	c.After(time.Second, tick)
	c.Run()
	if hits != 5 {
		t.Errorf("cascade ran %d times, want 5", hits)
	}
	if c.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", c.Now())
	}
}

func TestClockRunUntil(t *testing.T) {
	var c Clock
	ran := 0
	c.At(time.Second, func() { ran++ })
	c.At(3*time.Second, func() { ran++ })
	n := c.RunUntil(2 * time.Second)
	if n != 1 || ran != 1 {
		t.Errorf("RunUntil ran %d events, want 1", ran)
	}
	if c.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", c.Now())
	}
	if c.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", c.Pending())
	}
}

func TestClockPastSchedulingPanics(t *testing.T) {
	var c Clock
	c.At(time.Second, func() {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	c.At(500*time.Millisecond, func() {})
}

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Add("probe", 1)
	c.Add("probe", 4)
	c.Add("msg", 10)
	if c.Get("probe") != 5 {
		t.Errorf("probe = %d, want 5", c.Get("probe"))
	}
	if c.Total() != 15 {
		t.Errorf("Total = %d, want 15", c.Total())
	}
	snap := c.Snapshot()
	snap["probe"] = 0
	if c.Get("probe") != 5 {
		t.Error("Snapshot must be a copy")
	}
	if s := c.String(); s != "msg=10 probe=5" {
		t.Errorf("String = %q", s)
	}
}

func TestCountersZeroValueUsable(t *testing.T) {
	var c Counters
	c.Add("x", 1)
	if c.Get("x") != 1 {
		t.Error("zero-value Counters unusable")
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				c.Add("n", 1)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if c.Get("n") != 8000 {
		t.Errorf("n = %d, want 8000", c.Get("n"))
	}
}
