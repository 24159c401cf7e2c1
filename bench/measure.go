package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"syscall"
	"time"

	"asap/internal/stats"
)

// processStart anchors the first set-up sample at process start, so the
// runtime's own initialisation counts as set-up.
var processStart = time.Now()

// repSample is what one measured repetition cost the process.
type repSample struct {
	ops, failed int64
	wall        time.Duration
	user, sys   time.Duration
	mallocs     uint64
	bytes       uint64
	gcCycles    uint32
	gcPause     time.Duration
	traced      bool
}

func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// measureRep runs one repetition between two process snapshots. The heap
// is collected first, outside the timed window, so every repetition
// starts from the same GC state.
func measureRep(fn func() (ops, failed int64, err error)) (repSample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0, s0 := rusage()
	t0 := time.Now()
	ops, failed, err := fn()
	wall := time.Since(t0)
	u1, s1 := rusage()
	runtime.ReadMemStats(&m1)
	return repSample{
		ops: ops, failed: failed, wall: wall,
		user: u1 - u0, sys: s1 - s0,
		mallocs:  m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}, err
}

// liveHeapMB is HeapAlloc after two collections (the first queues
// finalizers, the second frees what they release).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// Stat is a reported value: the median over N samples and their
// interquartile range (0 for exact values taken once).
type Stat struct {
	Value float64 `json:"value"`
	IQR   float64 `json:"iqr"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
}

func exact(v float64, unit string) Stat { return Stat{Value: v, N: 1, Unit: unit} }

func statOf(vals []float64, unit string) Stat {
	q1, q2, q3 := quartiles(vals)
	return Stat{Value: q2, IQR: q3 - q1, N: len(vals), Unit: unit}
}

// fastestStat is how wall time is summarised over a run's repetitions:
// the median of the pinnedReps fastest ones, with the IQR of all of them
// beside it. Interference with wall time on a shared box is one-sided —
// being descheduled only ever slows a repetition down — and comes in
// waves of several seconds, so the median over all repetitions follows
// the waves (the same binary and seed read 5.7 to 8.2 us per voice packet
// run to run) while the fastest repetitions repeat within a few per cent.
// User CPU is not summarised this way: its noise (scheduler spinning,
// cache state) goes both ways, and the plain median is the steadier one.
func fastestStat(vals []float64, unit string) Stat {
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	st := statOf(vals, unit)
	if len(x) > pinnedReps {
		x = x[:pinnedReps]
	}
	st.Value = median(x)
	return st
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the "exclusive" method), so the
// spreads printed here are the ones the driver computes.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	m := len(x)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, q2, _ := quartiles(vals)
	return q2
}

// percentile and mean are internal/stats with 0 for empty input: a NaN
// would make the result unprintable as JSON.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return stats.Quantile(vals, p/100)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return stats.Mean(vals)
}

// digest hashes per-operation outcome lines.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) linef(format string, args ...interface{}) {
	fmt.Fprintf(d.h, format, args...)
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// Check is one correctness check's verdict.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// timeLoop times n calls of fn and reports ns and heap allocations per
// call. It is the isolated-probe primitive: one goroutine, no tracing.
func timeLoop(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probeMedian repeats a timeLoop k times and returns the medians, so one
// scheduler hiccup does not decide a per-layer row.
func probeMedian(k, n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	ns := make([]float64, k)
	al := make([]float64, k)
	for r := 0; r < k; r++ {
		ns[r], al[r] = timeLoop(n, fn)
	}
	return median(ns), median(al)
}
