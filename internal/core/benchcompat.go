package core

import "repro/internal/grid"

// This file holds the identifiers that only bench/layers.go still names.
// bench/ is frozen until the [benchmark] PR of ROADMAP item 1, which
// rewrites the driver to call Index directly and deletes this file; no
// other non-test code may use what is declared here.

// MassCache is what is left of the cross-query segment-mass cache: an
// empty type bench/layers.go builds per pass and hands to SOIContext's
// ignored fourth parameter (ROADMAP 1(c)).
type MassCache struct{}

// NewMassCache returns an empty MassCache; the size is ignored.
func NewMassCache(int) *MassCache { return &MassCache{} }

// SlabIndex returns the index itself: Index and the evaluator it used to
// point to are one type.
func (ix *Index) SlabIndex() *Index { return ix }

// SegmentCells returns the ε-augmented segment-to-cell map: for every
// segment, the ids of the non-empty grid cells within distance eps,
// ascending — the ε-plan's Cε(ℓ) with ordinals spelled as cell ids. Each
// call builds a fresh copy.
func (ix *Index) SegmentCells(eps float64) [][]grid.CellID {
	p := ix.plan(eps)
	ids := make([]grid.CellID, len(p.segCell))
	for i, ord := range p.segCell {
		ids[i] = grid.CellID(ix.slab.CellIDs[ord])
	}
	sc := make([][]grid.CellID, len(p.segCellOff)-1)
	for sid := range sc {
		lo, hi := p.segCellOff[sid], p.segCellOff[sid+1]
		sc[sid] = ids[lo:hi:hi]
	}
	return sc
}
