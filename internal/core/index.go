package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/stats"
	"repro/internal/vocab"
)

// IndexConfig controls offline index construction.
type IndexConfig struct {
	// CellSize is the grid cell side length; must be positive. The paper
	// leaves the cell size arbitrary; a size close to the query ε keeps
	// the ε-augmented maps small.
	CellSize float64
	// Compact is ignored: every index serves from the struct-of-arrays
	// slab (grid.Slab). The field is kept only because bench/ sets it.
	Compact bool
	// Bounds, when non-zero, fixes the grid extent instead of deriving it
	// from the network and corpus. Spatial sharding (internal/shard) sets
	// it to the unpartitioned world's bounds so that every shard index
	// uses the exact global cell lattice: identical cell ids, identical
	// Cε(ℓ) cell orders, and therefore bit-identical mass folds. Objects
	// outside the given bounds are clamped into border cells by the grid.
	Bounds geo.Rect
}

// Index is the offline data structure set of Section 3.2.1: a spatial grid
// over the POIs with per-cell inverted indexes, a global inverted index
// from keywords to cells, and the cell↔segment maps, all held by the slab
// evaluator (SlabIndex). Segment lists augmented by a query distance ε
// are computed on first use and memoized per ε.
//
// Read-only contract: an Index is immutable and safe for any number of
// concurrent readers (SOI, Baseline, the accessor methods, and the ε-memo
// getters, which guard their caches internally). All per-run mutable
// state lives in a pooled slabRun, checked out per evaluation. Writes go
// through internal/ingest, which publishes fresh indexes.
type Index struct {
	net  *network.Network
	pois *poi.Corpus

	// six evaluates every SOI query, the static bound and SegmentMass.
	six *SlabIndex

	// layout is the reference grid of the baseline (maplayout.go),
	// reached only through maps(): nil until the first call builds it
	// from the slab under layoutOnce.
	layout     atomic.Pointer[mapLayout]
	layoutOnce sync.Once

	// rec, when set, counts lazy layout builds (SetRecorder).
	rec *stats.Recorder
}

// NewIndex builds the offline index over a network and POI corpus: one
// slab build (BuildSlab), opened by NewIndexFromSlab.
func NewIndex(net *network.Network, pois *poi.Corpus, cfg IndexConfig) (*Index, error) {
	slab, err := BuildSlab(net, pois, cfg)
	if err != nil {
		return nil, err
	}
	return NewIndexFromSlab(net, pois, slab)
}

// NewIndexFromSlab opens a full index over a prebuilt slab (for example,
// one loaded from a snapshot) without re-ingesting the POIs. The work is
// O(segments): the slab evaluator flattens the network and sorts SL3,
// and that is all. SOI queries, the static bound and SegmentMass are
// served from the slab alone; the baseline's reference grid, aliasing the
// slab's arrays, is materialised only when Baseline, Grid or an
// ε-augmented map accessor first asks for it.
func NewIndexFromSlab(net *network.Network, pois *poi.Corpus, slab *grid.Slab) (*Index, error) {
	six, err := NewSlabIndexFromSlab(net, pois, slab)
	if err != nil {
		return nil, err
	}
	return &Index{net: net, pois: pois, six: six}, nil
}

// SetRecorder makes the index count its lazy reference-grid builds in
// rec.Core.MapLayoutBuilds, so a serving process can show whether
// anything pulled the baseline's grid into memory. Call it before the
// index is shared between goroutines.
func (ix *Index) SetRecorder(rec *stats.Recorder) { ix.rec = rec }

// SlabIndex returns the index's evaluator.
func (ix *Index) SlabIndex() *SlabIndex { return ix.six }

// Network returns the indexed road network.
func (ix *Index) Network() *network.Network { return ix.net }

// POIs returns the indexed POI corpus.
func (ix *Index) POIs() *poi.Corpus { return ix.pois }

// Grid returns the POI grid the baseline scans, materialising it on the
// first call.
func (ix *Index) Grid() *grid.Grid { return ix.maps().grid }

// SegmentCells returns the ε-augmented segment-to-cell map: for every
// segment, the non-empty grid cells within distance eps. The result is
// memoized per eps; callers must not modify it. Concurrent callers may
// race to build the map for a fresh eps; each computes an identical value
// and the last store wins, so every returned map is valid.
func (ix *Index) SegmentCells(eps float64) [][]grid.CellID {
	m := ix.maps()
	m.mu.RLock()
	sc, ok := m.segCells[eps]
	m.mu.RUnlock()
	if ok {
		return sc
	}
	segs := ix.net.Segments()
	sc = make([][]grid.CellID, len(segs))
	for i := range segs {
		sc[i] = m.grid.CellsNearSegment(segs[i].Geom, eps)
	}
	m.mu.Lock()
	m.segCells[eps] = sc
	m.mu.Unlock()
	return sc
}

// CellSegments returns the ε-augmented cell-to-segment map Lε: for every
// non-empty cell, the segments within distance eps. Memoized per eps;
// callers must not modify it.
func (ix *Index) CellSegments(eps float64) map[grid.CellID][]network.SegmentID {
	m := ix.maps()
	m.mu.RLock()
	cs, ok := m.cellSegs[eps]
	m.mu.RUnlock()
	if ok {
		return cs
	}
	sc := ix.SegmentCells(eps)
	cs = make(map[grid.CellID][]network.SegmentID)
	for sid, cells := range sc {
		for _, c := range cells {
			cs[c] = append(cs[c], network.SegmentID(sid))
		}
	}
	m.mu.Lock()
	m.cellSegs[eps] = cs
	m.mu.Unlock()
	return cs
}

// Warm precomputes the ε-plan the query path reads, so that subsequent
// query timings measure only query work. The reference grid's memos are
// left to the callers that read them (Baseline builds them on first use).
func (ix *Index) Warm(eps float64) { ix.six.Warm(eps) }

// cellMassScan returns the total weight of POIs in cell c that match the
// query and lie within eps of segment sid, the way the paper's baseline BL
// does: it "uses only the spatial grid index", scanning every POI of the
// cell and testing the keyword predicate directly, without the per-cell
// inverted indexes. Its cost is therefore independent of |Ψ| (the paper
// notes "the value of |Ψ| has no effect in BL").
func (ix *Index) cellMassScan(c *grid.Cell, query vocab.Set, sid network.SegmentID, eps float64) float64 {
	seg := ix.net.Segment(sid).Geom
	epsSq := eps * eps
	var mass float64
	for _, m := range c.Members {
		p := ix.pois.Get(m)
		if p.Keywords.Intersects(query) && seg.DistToPointSq(p.Loc) <= epsSq {
			mass += p.Weight
		}
	}
	return mass
}

// SegmentMass computes the exact relevant mass of a segment (Def. 1) by
// visiting every ε-near cell of the memoized ε-plan.
func (ix *Index) SegmentMass(sid network.SegmentID, query vocab.Set, eps float64) float64 {
	return ix.six.segmentMass(sid, query, eps)
}

// SegmentInterest computes the exact interest of a segment (Def. 2).
func (ix *Index) SegmentInterest(sid network.SegmentID, query vocab.Set, eps float64) float64 {
	return Interest(ix.SegmentMass(sid, query, eps), ix.net.Segment(sid).Length(), eps)
}

// CountRelevantInCells returns the number of POIs matching the query, per
// the weighted global inverted index (used by the Table 4 experiment).
func (ix *Index) CountRelevant(query vocab.Set) int {
	return ix.pois.CountRelevant(query)
}
