//go:build !race

package nat

const raceEnabled = false
