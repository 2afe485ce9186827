//go:build race

package engine

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count assertions are
// meaningless under -race.
const raceEnabled = true
