package grid

import (
	"repro/internal/geo"
	"repro/internal/vocab"
)

// Only bench/layers.go calls Build then NewSlab, to time the grid build;
// through them it times BuildSlab, the builder core.NewIndex runs (ROADMAP
// 1(c)). The benchmark rewrite of ROADMAP item 1 deletes this file, and no
// other non-test code may use it.

// Grid is what Build returns: validated inputs awaiting NewSlab.
type Grid struct {
	cfg  Config
	keys []vocab.Set
}

// Build validates a build's inputs as BuildSlab does and keeps them.
func Build(cfg Config, locs []geo.Point, keys []vocab.Set) (*Grid, error) {
	if _, err := resolveLattice(cfg, locs, keys); err != nil {
		return nil, err
	}
	return &Grid{cfg: cfg, keys: keys}, nil
}

// NewSlab runs BuildSlab over the inputs g kept, at locs.
func NewSlab(g *Grid, locs []geo.Point, weights []float64) (*Slab, error) {
	return BuildSlab(g.cfg, locs, g.keys, weights)
}
