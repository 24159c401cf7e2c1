//go:build race

package nat

// raceEnabled gates the allocation tests: the race detector instruments
// allocations.
const raceEnabled = true
