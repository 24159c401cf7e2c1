//go:build race

package udp

// raceEnabled gates the allocation-regression tests: the race detector
// instruments allocations, so AllocsPerRun counts are meaningless there.
const raceEnabled = true
