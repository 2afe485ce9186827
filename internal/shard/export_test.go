package shard

import "repro/internal/geo"

// LoadWorld loads every shard a manifest names with LoadShard, the loader
// each soishard process runs, into one queryable World. Close the world
// when no queries are in flight to release the mappings.
func LoadWorld(manifestPath string) (*World, error) {
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
	for id := range m.Shards {
		sh, _, mapping, err := LoadShard(manifestPath, id)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.mappings = append(w.mappings, mapping)
		w.Shards = append(w.Shards, sh)
	}
	return w, nil
}
