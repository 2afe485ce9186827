package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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

// Index is the offline data structure set of Section 3.2.1 and the
// evaluator of Algorithm 1 over it: a spatial grid over the POIs with
// per-cell inverted indexes, a global inverted index from keywords to
// cells, and the cell↔segment maps, all in the flattened struct-of-arrays
// layout (grid.Slab). Source lists, postings and the ε-augmented
// cell↔segment maps are offset ranges into contiguous arrays, computed on
// first use and memoized per ε; the per-query state lives in a pooled
// scratch arena addressed by dense ordinals, and the steady-state query
// path performs zero heap allocations. Every float is folded in a fixed
// order (POIs by ascending id within a cell, cells in canonical Cε(ℓ)
// order), so an answer is a pure function of the query, whichever access
// schedule the run had.
//
// Read-only contract: an Index is immutable and safe for any number of
// concurrent readers (SOI, Baseline and the accessor methods; the ε-plan
// and interest memos guard themselves). All per-run mutable state lives
// in a pooled slabRun, checked out per evaluation. Writes go through
// internal/ingest, which publishes fresh indexes.
type Index struct {
	net  *network.Network
	pois *poi.Corpus
	slab *grid.Slab

	// Flattened network: segment endpoint coordinates, cached lengths and
	// street ids, indexed by segment id.
	segAX, segAY []float64
	segBX, segBY []float64
	segLen       []float64
	segStreet    []uint32

	// segsByLen is SL3, the query-independent source list: segment ids
	// sorted increasingly by length, ties by id.
	segsByLen []network.SegmentID

	// mu guards the per-ε plan memos.
	mu    sync.RWMutex
	plans map[float64]*slabPlan

	pool sync.Pool // *slabRun

	// interests is the memo of exact segment interest that routes and
	// trajectory SOI read (interestmemo.go); Algorithm 1 never reads it.
	interests atomic.Pointer[interestGen]
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

// NewIndexFromSlab opens an index over a prebuilt slab (for example, one
// loaded from a snapshot) without re-ingesting the POIs; the slab must
// index exactly the corpus's POIs. The work is O(segments): it flattens
// the network and sorts SL3. Every reader, the baseline included, is
// served from the slab and its ε-plans.
func NewIndexFromSlab(net *network.Network, pois *poi.Corpus, slab *grid.Slab) (*Index, error) {
	if slab.NumObjects != pois.Len() {
		return nil, fmt.Errorf("core: slab indexes %d objects but corpus has %d POIs", slab.NumObjects, pois.Len())
	}
	segs := net.Segments()
	ix := &Index{
		net:       net,
		pois:      pois,
		slab:      slab,
		segAX:     make([]float64, len(segs)),
		segAY:     make([]float64, len(segs)),
		segBX:     make([]float64, len(segs)),
		segBY:     make([]float64, len(segs)),
		segLen:    make([]float64, len(segs)),
		segStreet: make([]uint32, len(segs)),
		segsByLen: make([]network.SegmentID, len(segs)),
		plans:     make(map[float64]*slabPlan),
	}
	for i := range segs {
		s := &segs[i]
		ix.segAX[i], ix.segAY[i] = s.Geom.A.X, s.Geom.A.Y
		ix.segBX[i], ix.segBY[i] = s.Geom.B.X, s.Geom.B.Y
		ix.segLen[i] = s.Length()
		ix.segStreet[i] = uint32(s.Street)
		ix.segsByLen[i] = s.ID
	}
	slices.SortFunc(ix.segsByLen, func(a, b network.SegmentID) int {
		if ix.segLen[a] != ix.segLen[b] {
			if ix.segLen[a] < ix.segLen[b] {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	ix.pool.New = func() interface{} { return &slabRun{ix: ix} }
	return ix, nil
}

// Network returns the indexed road network.
func (ix *Index) Network() *network.Network { return ix.net }

// POIs returns the indexed POI corpus.
func (ix *Index) POIs() *poi.Corpus { return ix.pois }

// Slab returns the underlying flattened grid.
func (ix *Index) Slab() *grid.Slab { return ix.slab }

// Warm precomputes the ε-plan every reader shares — the query path and
// Baseline alike — so that subsequent timings measure only query work.
func (ix *Index) Warm(eps float64) { ix.plan(eps) }

// cellMassScan returns the total weight of POIs in cell ord that match the
// query and lie within eps of segment sid, the way the paper's baseline BL
// does: it "uses only the spatial grid index", scanning every POI of the
// cell and testing the keyword predicate directly, without the per-cell
// inverted indexes. Its cost is therefore independent of |Ψ| (the paper
// notes "the value of |Ψ| has no effect in BL").
func (ix *Index) cellMassScan(ord int, query vocab.Set, sid network.SegmentID, eps float64) float64 {
	seg := ix.net.Segment(sid).Geom
	epsSq := eps * eps
	slab := ix.slab
	var mass float64
	for _, m := range slab.Members[slab.MemberOff[ord]:slab.MemberOff[ord+1]] {
		p := ix.pois.Get(m)
		if p.Keywords.Intersects(query) && seg.DistToPointSq(p.Loc) <= epsSq {
			mass += p.Weight
		}
	}
	return mass
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
