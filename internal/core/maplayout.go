package core

import (
	"sync"

	"repro/internal/grid"
	"repro/internal/network"
)

// mapLayout is what the independent baseline BL reads instead of the
// slab evaluator's plans: the POI grid with per-cell member lists
// (grid.FromSlab, aliasing the slab's arrays) and the ε-augmented
// cell↔segment memos built over it. Baseline, Grid and the SegmentCells /
// CellSegments accessors read it; no SOI evaluation does.
//
// An index has no map layout until something asks: Index.maps builds it
// from the slab on first touch, exactly once. Reach the fields only
// through that accessor.
type mapLayout struct {
	grid *grid.Grid

	// mu guards the ε-memo maps below; the read paths take the read lock
	// only, so concurrent callers over distinct or warmed ε values do not
	// serialize.
	mu       sync.RWMutex
	segCells map[float64][][]grid.CellID // ε → per-segment Cε(ℓ)
	cellSegs map[float64]map[grid.CellID][]network.SegmentID
}

// maps returns the index's map layout, materialising it from the slab on
// the first call. Concurrent first callers build it once and all see the
// same value.
func (ix *Index) maps() *mapLayout {
	if m := ix.layout.Load(); m != nil {
		return m
	}
	ix.layoutOnce.Do(func() {
		ix.layout.Store(&mapLayout{
			grid:     grid.FromSlab(ix.six.slab),
			segCells: make(map[float64][][]grid.CellID),
			cellSegs: make(map[float64]map[grid.CellID][]network.SegmentID),
		})
		if ix.rec != nil {
			ix.rec.Core.MapLayoutBuilds.Add(1)
		}
	})
	return ix.layout.Load()
}
