//go:build !race

package asgraph

// raceEnabled gates allocation-count assertions, which the race
// runtime's instrumentation would spoil.
const raceEnabled = false
