// Package shard partitions a world into spatial tiles and answers k-SOI
// queries over the partitions by scatter-gather, bit-identically to the
// single-index path.
//
// Partitioning assigns every street to exactly one tile by the center of
// its bounding box. Each shard carries its own slab index built over the
// unpartitioned world's bounds, which pins all shards to the global cell
// lattice, and POIs are replicated by cell of that lattice: a shard holds,
// in whole, every cell whose rectangle lies within the configured halo
// radius of one of its segments, and nothing else. That is the predicate
// by which Algorithm 1 builds a segment's ε-augmented cell map Cε(ℓ), so
// for every ε ≤ Halo a shard's Cε(ℓ), per-cell weights and per-cell member
// order equal the global ones and its IEEE-754 mass folds are bit-identical
// (DESIGN.md §12).
//
// There is one scatter-gather run, gather (gather.go), written against
// RemoteQuerier, and it is one round: every shard evaluated at once, each
// answer carrying its shard's static bound, then (bound desc, id asc)
// order and a sequential prune-or-merge. Coordinator runs it
// over the world's own shards (World.Querier), RemoteCoordinator over
// shard servers in other processes (a remote.Client); they differ only in
// which shard failures may degrade an answer instead of failing it.
package shard

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/poi"
)

// Config controls partitioning.
type Config struct {
	// Tiles is the requested number of spatial tiles (≥ 1). The tile
	// grid is SplitTiles(Tiles); tiles that receive no street produce
	// no shard, so the resulting world may hold fewer shards.
	Tiles int
	// Halo is the POI replication radius (≥ the largest query ε the
	// world must answer exactly). Queries with Epsilon > Halo are
	// rejected by the coordinator.
	Halo float64
	// CellSize is the grid cell size for every per-shard index.
	CellSize float64
	// Compact is ignored: every per-shard index is slab-backed. The field
	// is kept only because bench/ sets it.
	Compact bool
}

// Shard is one spatial partition: a self-contained network + POI subset
// with its own index, plus monotone local→global id maps.
type Shard struct {
	ID    int
	TileX int
	TileY int

	Net   *network.Network
	POIs  *poi.Corpus
	Index *core.Index

	// Streets[local] and Segments[local] give the global id of a local
	// street/segment. Both are strictly ascending: streets are re-added
	// in global id order and AddStreet numbers segments consecutively,
	// so local order mirrors global order and every tie-break on ids is
	// preserved across the mapping.
	Streets  []network.StreetID
	Segments []network.SegmentID
}

// World is a partitioned dataset ready for scatter-gather queries.
type World struct {
	Shards   []*Shard
	Bounds   geo.Rect
	TilesX   int
	TilesY   int
	Halo     float64
	CellSize float64
}

// SplitTiles factors a requested tile count into a near-square grid:
// gx = ⌈√n⌉ columns and gy = ⌈n/gx⌉ rows (2 → 2×1, 4 → 2×2, 9 → 3×3).
func SplitTiles(n int) (gx, gy int) {
	if n < 1 {
		return 1, 1
	}
	gx = int(math.Ceil(math.Sqrt(float64(n))))
	gy = (n + gx - 1) / gx
	return gx, gy
}

// Partition splits a world into spatial shards. The street assignment,
// POI replication and shard numbering are pure functions of the inputs,
// so the same dataset always partitions identically.
func Partition(net *network.Network, pois *poi.Corpus, cfg Config) (*World, error) {
	if cfg.Tiles < 1 {
		return nil, fmt.Errorf("shard: tile count %d < 1", cfg.Tiles)
	}
	if cfg.Halo < 0 || math.IsNaN(cfg.Halo) || math.IsInf(cfg.Halo, 0) {
		return nil, fmt.Errorf("shard: invalid halo %v", cfg.Halo)
	}
	if cfg.CellSize <= 0 {
		return nil, fmt.Errorf("shard: non-positive cell size %v", cfg.CellSize)
	}
	if net.NumStreets() == 0 {
		return nil, fmt.Errorf("shard: cannot partition an empty network")
	}
	bounds := net.Bounds()
	for _, p := range pois.All() {
		bounds = bounds.Union(geo.Rect{MinX: p.Loc.X, MinY: p.Loc.Y, MaxX: p.Loc.X, MaxY: p.Loc.Y})
	}
	if !bounds.IsValid() {
		return nil, fmt.Errorf("shard: cannot derive bounds from network and corpus")
	}
	cells, err := newCellMap(bounds, cfg.CellSize, pois)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}

	gx, gy := SplitTiles(cfg.Tiles)
	tileW := bounds.Width() / float64(gx)
	tileH := bounds.Height() / float64(gy)

	// Assign every street to the tile containing its bbox center,
	// clamping degenerate extents onto the border tiles.
	tileOf := func(id network.StreetID) int {
		c := net.StreetBounds(id).Center()
		tx, ty := 0, 0
		if tileW > 0 {
			tx = int((c.X - bounds.MinX) / tileW)
		}
		if tileH > 0 {
			ty = int((c.Y - bounds.MinY) / tileH)
		}
		if tx < 0 {
			tx = 0
		} else if tx >= gx {
			tx = gx - 1
		}
		if ty < 0 {
			ty = 0
		} else if ty >= gy {
			ty = gy - 1
		}
		return ty*gx + tx
	}
	streetsByTile := make([][]network.StreetID, gx*gy)
	for id := 0; id < net.NumStreets(); id++ {
		t := tileOf(network.StreetID(id))
		streetsByTile[t] = append(streetsByTile[t], network.StreetID(id))
	}

	w := &World{
		Bounds:   bounds,
		TilesX:   gx,
		TilesY:   gy,
		Halo:     cfg.Halo,
		CellSize: cfg.CellSize,
	}
	for t, streets := range streetsByTile {
		if len(streets) == 0 {
			continue // empty tiles produce no shard, deterministically
		}
		s, err := buildShard(net, pois, cfg, cells, streets)
		if err != nil {
			return nil, fmt.Errorf("shard: tile %d: %w", t, err)
		}
		s.ID = len(w.Shards)
		s.TileX = t % gx
		s.TileY = t / gx
		w.Shards = append(w.Shards, s)
	}
	return w, nil
}

// cellMap places the corpus on the global cell lattice once, for every
// shard: the non-empty cells, and the cell of each POI.
type cellMap struct {
	lat grid.Lattice
	// ids lists the non-empty cells, ascending.
	ids []int32
	// ofPOI[i] is the index in ids of POI i's cell.
	ofPOI []int32
}

func newCellMap(bounds geo.Rect, cellSize float64, pois *poi.Corpus) (*cellMap, error) {
	lat, err := grid.NewLattice(bounds, cellSize)
	if err != nil {
		return nil, err
	}
	locs := make([]geo.Point, pois.Len())
	for i, p := range pois.All() {
		locs[i] = p.Loc
	}
	ids, ofPOI := lat.Cells(locs)
	return &cellMap{lat: lat, ids: ids, ofPOI: ofPOI}, nil
}

// near reports, per non-empty cell, whether its rectangle lies within halo
// of any of the given segments — grid's Cε(ℓ) predicate at ε = halo, so
// for every ε ≤ halo each cell of each segment's Cε(ℓ) is reported.
func (m *cellMap) near(segs []network.Segment, halo float64) []bool {
	near := make([]bool, len(m.ids))
	left := len(near)
	for _, seg := range segs {
		if left == 0 {
			break // a halo past the world's extent replicates everything
		}
		left -= m.lat.MarkNearSegment(m.ids, seg.Geom, halo, near)
	}
	return near
}

// buildShard assembles one shard: its streets re-added in global id
// order, its POI subset — every POI of every cell near one of its
// segments — taken in global id order, and its index pinned to the global
// bounds.
func buildShard(net *network.Network, pois *poi.Corpus, cfg Config, cells *cellMap, streets []network.StreetID) (*Shard, error) {
	nb := network.NewBuilder()
	var segMap []network.SegmentID
	for _, gid := range streets {
		st := net.Street(gid)
		poly := make([]geo.Point, 0, len(st.Segments)+1)
		poly = append(poly, net.Segment(st.Segments[0]).Geom.A)
		for _, sid := range st.Segments {
			poly = append(poly, net.Segment(sid).Geom.B)
		}
		nb.AddStreet(st.Name, poly)
		// AddStreet numbers the new street's segments consecutively in
		// polyline order, which is exactly st.Segments' global order.
		segMap = append(segMap, st.Segments...)
	}
	snet, err := nb.Build()
	if err != nil {
		return nil, err
	}

	near := cells.near(snet.Segments(), cfg.Halo)
	pb := poi.NewBuilder(pois.Dict())
	for i, p := range pois.All() {
		if near[cells.ofPOI[i]] {
			pb.AddSet(p.Loc, p.Keywords, p.Weight)
		}
	}
	spois := pb.Build()

	ix, err := core.NewIndex(snet, spois, core.IndexConfig{
		CellSize: cfg.CellSize,
		Bounds:   cells.lat.Bounds,
	})
	if err != nil {
		return nil, err
	}
	return &Shard{
		Net:      snet,
		POIs:     spois,
		Index:    ix,
		Streets:  append([]network.StreetID(nil), streets...),
		Segments: segMap,
	}, nil
}
