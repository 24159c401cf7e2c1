//go:build race

package sim

// raceEnabled gates the allocation-regression tests: the race detector
// instruments allocations, so AllocsPerRun counts are meaningless there.
const raceEnabled = true
