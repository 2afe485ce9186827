package shard

import (
	"io"
	"testing"

	"repro/internal/geo"
)

// LoadWorld loads every shard a manifest names with LoadShard, the loader
// each soishard process runs, into one queryable World. The snapshot
// mappings backing its indexes are released when t and its subtests end,
// so queries must not outlive the test.
func LoadWorld(t testing.TB, manifestPath string) (*World, error) {
	m, err := LoadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	w := &World{
		Bounds:   geo.Rect{MinX: m.Bounds[0], MinY: m.Bounds[1], MaxX: m.Bounds[2], MaxY: m.Bounds[3]},
		TilesX:   m.TilesX,
		TilesY:   m.TilesY,
		Halo:     m.Halo,
		CellSize: m.CellSize,
	}
	var mappings []io.Closer
	t.Cleanup(func() {
		for _, c := range mappings {
			if err := c.Close(); err != nil {
				t.Errorf("closing a shard mapping: %v", err)
			}
		}
	})
	for id := range m.Shards {
		sh, _, mapping, err := LoadShard(manifestPath, id)
		if err != nil {
			return nil, err
		}
		mappings = append(mappings, mapping)
		w.Shards = append(w.Shards, sh)
	}
	return w, nil
}
