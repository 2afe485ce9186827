//go:build !race

package traj

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
