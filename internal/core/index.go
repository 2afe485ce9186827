package core

import (
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/poi"
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
// concurrent readers (SOI, Baseline and the accessor methods; the ε-plan
// memo guards itself). All per-run mutable state lives in a pooled
// slabRun, checked out per evaluation. Writes go through internal/ingest,
// which publishes fresh indexes.
type Index struct {
	net  *network.Network
	pois *poi.Corpus

	// six holds the slab and the ε-plans: it evaluates every SOI query,
	// the static bound and SegmentMass, and Baseline scans its cells.
	six *SlabIndex
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
// O(segments): the slab evaluator flattens the network and sorts SL3.
// Every reader, the baseline included, is served from the slab and its
// ε-plans.
func NewIndexFromSlab(net *network.Network, pois *poi.Corpus, slab *grid.Slab) (*Index, error) {
	six, err := NewSlabIndexFromSlab(net, pois, slab)
	if err != nil {
		return nil, err
	}
	return &Index{net: net, pois: pois, six: six}, nil
}

// SlabIndex returns the index's evaluator.
func (ix *Index) SlabIndex() *SlabIndex { return ix.six }

// Network returns the indexed road network.
func (ix *Index) Network() *network.Network { return ix.net }

// POIs returns the indexed POI corpus.
func (ix *Index) POIs() *poi.Corpus { return ix.pois }

// SegmentCells returns the ε-augmented segment-to-cell map: for every
// segment, the ids of the non-empty grid cells within distance eps,
// ascending — the ε-plan's Cε(ℓ) with ordinals spelled as cell ids. Each
// call builds a fresh copy.
func (ix *Index) SegmentCells(eps float64) [][]grid.CellID {
	p := ix.six.plan(eps)
	ids := make([]grid.CellID, len(p.segCell))
	for i, ord := range p.segCell {
		ids[i] = grid.CellID(ix.six.slab.CellIDs[ord])
	}
	sc := make([][]grid.CellID, len(p.segCellOff)-1)
	for sid := range sc {
		lo, hi := p.segCellOff[sid], p.segCellOff[sid+1]
		sc[sid] = ids[lo:hi:hi]
	}
	return sc
}

// Warm precomputes the ε-plan every reader shares — the query path and
// Baseline alike — so that subsequent timings measure only query work.
func (ix *Index) Warm(eps float64) { ix.six.Warm(eps) }

// cellMassScan returns the total weight of POIs in cell ord that match the
// query and lie within eps of segment sid, the way the paper's baseline BL
// does: it "uses only the spatial grid index", scanning every POI of the
// cell and testing the keyword predicate directly, without the per-cell
// inverted indexes. Its cost is therefore independent of |Ψ| (the paper
// notes "the value of |Ψ| has no effect in BL").
func (ix *Index) cellMassScan(ord int, query vocab.Set, sid network.SegmentID, eps float64) float64 {
	seg := ix.net.Segment(sid).Geom
	epsSq := eps * eps
	slab := ix.six.slab
	var mass float64
	for _, m := range slab.Members[slab.MemberOff[ord]:slab.MemberOff[ord+1]] {
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
