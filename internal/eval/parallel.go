package eval

import (
	"runtime"
	"sync"

	"asap/internal/sim"
)

// normWorkers resolves a worker-count argument: anything below 1 means
// "use every available CPU".
func normWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// forEachIndexed runs fn(i) for i in [0,n) on a bounded pool of workers.
// Each index is processed exactly once; fn writes its result into an
// index-addressed slot, so the caller's assembly order — and therefore
// the output — is independent of worker count and completion order.
func forEachIndexed(workers, n int, fn func(i int)) {
	workers = normWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		i := int(next)
		next++
		mu.Unlock()
		return i
	}
	worker := func() {
		for {
			i := take()
			if i >= n {
				return
			}
			fn(i)
		}
	}
	pool := make([]func(), workers)
	for w := range pool {
		pool[w] = worker
	}
	// The workers run at wall time by design — they parallelize whole
	// experiment arms, each of which owns a private virtual clock — but
	// they still go through a sim.Scheduler so every goroutine in
	// internal/ is accounted for by the concurrency model (DESIGN.md §9;
	// enforced by the schedgo analyzer).
	sim.OrWall(nil).Join(0, pool...)
}
