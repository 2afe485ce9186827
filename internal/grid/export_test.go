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
	objs, err := newSliceObjects(locs, keys, weights)
	if err != nil {
		return nil, err
	}
	return buildSlab(cfg, objs, workers)
}

// CellNear is the cell predicate CellsNearSegmentInto and
// MarkNearSegment apply: whether r lies within eps of seg.
func CellNear(r geo.Rect, seg geo.Segment, eps float64) bool {
	t := newNearTest(seg, eps)
	return t.cell(r)
}

// Span is the inclusive range of lattice cells r overlaps.
func (l Lattice) Span(r geo.Rect) (ix0, ix1, iy0, iy1 int) { return l.span(r) }
