package core

import (
	"context"

	"repro/internal/network"
)

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

// DrainBounds runs q's Drain marking pass on a fresh scratch run and
// returns, for each segment the pass saw, the refine bound the pass left
// and the one refine computed before the pass took the sum over: its own
// loop, kept here as the reference, adding the SL1 weight of every
// unvisited relevant cell of Cε(ℓ), in Cε(ℓ) order, to the segment's mass.
// bySL1 is the same weights summed in SL1's order instead, so a test can
// show that its worlds tell the two orders apart.
func (ix *Index) DrainBounds(q Query) (fused, loop, bySL1 []float64, err error) {
	query, err := ix.resolve(q)
	if err != nil {
		return nil, nil, nil, err
	}
	r := &slabRun{ix: ix, ctx: context.Background(), query: query, k: q.K, eps: q.Epsilon, strat: Drain}
	r.begin(ix.plan(q.Epsilon))
	if err := r.filter(); err != nil {
		return nil, nil, nil, err
	}
	for i, ord := range r.sl1Cell {
		r.cwVal[ord] = r.sl1W[i]
		r.cwStamp[ord] = r.epoch
	}
	sums := make([]float64, len(ix.segLen))
	for i, ord := range r.sl1Cell {
		for _, sid := range r.plan.cellSeg[r.plan.cellSegOff[ord]:r.plan.cellSegOff[ord+1]] {
			sums[sid] += r.sl1W[i]
		}
	}
	for _, sid := range r.seen {
		pot := r.segMass[sid]
		if r.segFinal[sid] != r.epoch {
			for j := r.plan.segCellOff[sid]; j < r.plan.segCellOff[sid+1]; j++ {
				if r.visited[j] != r.epoch {
					if ord := r.plan.segCell[j]; r.cwStamp[ord] == r.epoch {
						pot += r.cwVal[ord]
					}
				}
			}
		}
		fused = append(fused, r.segBound[sid])
		loop = append(loop, pot)
		bySL1 = append(bySL1, sums[sid])
	}
	return fused, loop, bySL1, nil
}
