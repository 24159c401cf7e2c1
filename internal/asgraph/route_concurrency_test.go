package asgraph

import (
	"sync"
	"sync/atomic"
	"testing"

	"asap/internal/sim"
)

// TestRouterConcurrentTableAccess hammers the table cache from many
// goroutines mixing hits, misses and evictions (the cache budget is far
// smaller than the destination set, so entries churn constantly). Under
// -race this proves the hand-off between lock-free hits and the locked
// miss path; the path checks prove results stay correct while tables are
// being evicted and rebuilt around them.
func TestRouterConcurrentTableAccess(t *testing.T) {
	rng := sim.NewRNG(43)
	g, err := Generate(DefaultGenConfig(300), rng)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, 32) // much smaller than 300 destinations: forced eviction
	asns := g.ASNs()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 600; i++ {
				a := asns[(w*601+i*7)%len(asns)]
				b := asns[(i*13+w)%len(asns)]
				if a == b {
					continue
				}
				p, ok := r.Path(a, b)
				if !ok {
					continue
				}
				if p[0] != a || p[len(p)-1] != b {
					t.Errorf("path endpoints %v do not match %d->%d", p, a, b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := cachedTables(r); n > 32 {
		t.Errorf("cache holds %d tables, budget 32", n)
	}
}

// TestRouterSingleflightCoalescesMisses verifies that concurrent misses
// for the same destination produce the same *RouteTable — the waiters
// adopt the builder's result rather than racing to install their own.
func TestRouterSingleflightCoalescesMisses(t *testing.T) {
	rng := sim.NewRNG(44)
	g, err := Generate(DefaultGenConfig(300), rng)
	if err != nil {
		t.Fatal(err)
	}
	asns := g.ASNs()
	dst := asns[len(asns)/2]

	for round := 0; round < 20; round++ {
		r := NewRouter(g, 64)
		const workers = 8
		var tables [workers]*RouteTable
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			ready.Add(1)
			done.Add(1)
			go func(w int) {
				defer done.Done()
				ready.Done()
				<-start
				tables[w] = r.Table(dst)
			}(w)
		}
		ready.Wait()
		close(start)
		done.Wait()
		for w := 1; w < workers; w++ {
			if tables[w] != tables[0] {
				t.Fatalf("round %d: worker %d got a different table instance", round, w)
			}
		}
		if tables[0] == nil {
			t.Fatalf("round %d: nil table for valid destination", round)
		}
	}
}

// TestRouterConcurrentDistinctMisses checks that builds for different
// destinations proceed independently and every caller gets a usable table.
func TestRouterConcurrentDistinctMisses(t *testing.T) {
	rng := sim.NewRNG(45)
	g, err := Generate(DefaultGenConfig(300), rng)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, 0)
	asns := g.ASNs()

	var wg sync.WaitGroup
	var nilCount atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < len(asns); i += 3 {
				if r.Table(asns[(i+w)%len(asns)]) == nil {
					nilCount.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := nilCount.Load(); n > 0 {
		t.Errorf("%d Table calls returned nil for known destinations", n)
	}
}
