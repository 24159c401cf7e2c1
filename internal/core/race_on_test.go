//go:build race

package core

// raceEnabled gates the allocation tests that count pooled envelopes: the
// race detector instruments allocations and drops pooled items at random.
const raceEnabled = true
