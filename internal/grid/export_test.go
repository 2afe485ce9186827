package grid

import (
	"repro/internal/geo"
	"repro/internal/vocab"
)

// ParallelBuildThreshold re-exports BuildSlab's parallel cutoff for tests.
const ParallelBuildThreshold = parallelBuildThreshold

// BuildSlabWithWorkers is BuildSlab at a pinned worker count; unlike
// BuildSlab it goes parallel on inputs of any size.
func BuildSlabWithWorkers(cfg Config, locs []geo.Point, keys []vocab.Set, weights []float64, workers int) (*Slab, error) {
	return buildSlab(cfg, locs, keys, weights, workers)
}
