//go:build race

package server

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count assertions are
// meaningless under -race.
const raceEnabled = true
