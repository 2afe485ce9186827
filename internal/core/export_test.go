package core

import "repro/internal/network"

// PlanCount reports how many ε-plans the index has memoized — the only
// ε-dependent state it holds — for tests outside the package.
func (ix *Index) PlanCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.plans)
}

// BitEqualResults is bitEqualResults for tests outside the package.
func BitEqualResults(a, b []StreetResult) bool { return bitEqualResults(a, b) }

// BruteBound is bruteBound for tests outside the package.
func BruteBound(ix *Index, q Query) float64 {
	b, _ := bruteBound(ix, q)
	return b
}

// InterestLimit is the interest memo's cap in entries.
func (ix *Index) InterestLimit() int { return int(ix.interestLimit()) }

// ResetInterestMemo drops the interest memo as a full one is dropped.
func (ix *Index) ResetInterestMemo() { ix.resetInterests(ix.interestGen()) }

// RaceEnabled is raceEnabled for tests outside the package.
const RaceEnabled = raceEnabled

// SlabPlan is slabPlan for tests outside the package.
type SlabPlan = slabPlan

// BuildPlan builds the ε-plan afresh at a pinned worker count, outside
// the memo.
func (ix *Index) BuildPlan(eps float64, workers int) *SlabPlan { return ix.buildPlan(eps, workers) }

// Cells is segment sid's Cε(ℓ) in the plan, as cell ordinals.
func (p *SlabPlan) Cells(sid int) []int32 { return p.segCell[p.segCellOff[sid]:p.segCellOff[sid+1]] }

// AllSegmentInterests computes the exact interest of every segment; the
// exhaustive oracle of the tests.
func (ix *Index) AllSegmentInterests(q Query) ([]float64, error) {
	query, err := ix.resolve(q)
	if err != nil {
		return nil, err
	}
	out := make([]float64, ix.net.NumSegments())
	for sid := range out {
		out[sid] = Interest(
			ix.SegmentMass(network.SegmentID(sid), query, q.Epsilon),
			ix.net.Segment(network.SegmentID(sid)).Length(),
			q.Epsilon,
		)
	}
	return out, nil
}
