//go:build !race

package engine

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
