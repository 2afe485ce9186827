//go:build !race

package soi

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
