package grid

import (
	"repro/internal/geo"
	"repro/internal/vocab"
)

// BuildWithWorkers exposes the internal worker-count knob so tests can
// force the sharded parallel ingestion path (workers ≥ 2 shards even
// below the size threshold is still gated by parallelBuildThreshold, so
// tests use inputs above it) and verify worker-count independence.
func BuildWithWorkers(cfg Config, locs []geo.Point, keys []vocab.Set, workers int) (*Grid, error) {
	return build(cfg, locs, keys, workers)
}

// ParallelBuildThreshold re-exports the sharding cutoff for tests.
const ParallelBuildThreshold = parallelBuildThreshold

// BuildSlabWithWorkers is BuildSlab at a pinned worker count; unlike
// BuildSlab it goes parallel on inputs of any size.
func BuildSlabWithWorkers(cfg Config, locs []geo.Point, keys []vocab.Set, weights []float64, workers int) (*Slab, error) {
	return buildSlab(cfg, locs, keys, weights, workers)
}
