// Package core implements the paper's first contribution: the k-SOI query
// (Problem 1) and the SOI top-k algorithm (Algorithm 1) that evaluates it,
// together with the exact baseline BL used in the paper's performance
// study (Section 5.2.1).
//
// Given a road network, a POI corpus and a query q = ⟨Ψ, k, ε⟩, the k-SOI
// query returns the k streets with the highest interest, where a segment's
// interest is its relevant-POI mass density over the ε-neighborhood area
// 2ε·len(ℓ) + πε² (Definitions 1–2) and a street's interest is the maximum
// interest among its segments (Definition 3).
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/network"
	"repro/internal/stats"
)

// Query is a k-SOI query q = ⟨Ψ, k, ε⟩.
type Query struct {
	// Keywords is the query keyword set Ψ.
	Keywords []string
	// K is the number of streets to return.
	K int
	// Epsilon is the distance threshold ε in coordinate units.
	Epsilon float64
}

// Validate reports whether the query is well formed.
func (q Query) Validate() error {
	if len(q.Keywords) == 0 {
		return errors.New("core: query needs at least one keyword")
	}
	if q.K <= 0 {
		return fmt.Errorf("core: non-positive k %d", q.K)
	}
	if !validEpsilon(q.Epsilon) {
		return fmt.Errorf("core: epsilon %v is not positive and finite", q.Epsilon)
	}
	return nil
}

// ErrBadEpsilon is returned, wrapped with the value, for an ε that is not
// positive and finite.
var ErrBadEpsilon = errors.New("core: epsilon is not positive and finite")

// CheckEpsilon returns ErrBadEpsilon unless eps is a usable distance
// threshold, so a caller can refuse a query before it is admitted.
func CheckEpsilon(eps float64) error {
	if validEpsilon(eps) {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrBadEpsilon, eps)
}

// validEpsilon reports whether eps is a usable distance threshold. The
// test is in the positive form because NaN fails every comparison; a
// non-finite ε would also leave a plan memo entry no later query can hit.
func validEpsilon(eps float64) bool { return eps > 0 && !math.IsInf(eps, 1) }

// StreetResult is one entry of a k-SOI answer.
type StreetResult struct {
	Street      network.StreetID
	Name        string
	Interest    float64
	BestSegment network.SegmentID
	// Mass is the relevant-POI mass of the best segment.
	Mass float64
}

// Stats records the work performed by a query evaluation, including the
// per-phase timing breakdown reported in the paper's Figure 4.
type Stats struct {
	BuildListsTime time.Duration
	FilterTime     time.Duration
	RefineTime     time.Duration

	// CellAccesses counts pops from source list SL1; under Drain, which
	// pops nothing, the relevant cells whose segment list was walked.
	CellAccesses int
	// SegmentAccesses counts pops from source lists SL2 and SL3.
	SegmentAccesses int
	// SL2Accesses and SL3Accesses split SegmentAccesses by source list:
	// finalizations driven by the cell-count order (SL2) versus the
	// length order (SL3).
	SL2Accesses int
	SL3Accesses int
	// FilterIterations counts iterations of the filter phase's UB/LBk
	// loop (one bound comparison each).
	FilterIterations int
	// CellVisits counts UpdateInterest invocations that did work.
	CellVisits int
	// SegmentsSeen counts segments that left the unseen state.
	SegmentsSeen int
	// SegmentsFinal counts segments whose exact interest was computed.
	SegmentsFinal int
	// RefineDrained counts segments finalized during the refinement
	// phase — the "as necessary" exact-mass computations of Algorithm 1
	// lines 25–28.
	RefineDrained int
	// TotalSegments and TotalCells size the search space.
	TotalSegments int
	TotalCells    int
}

// Record folds one evaluation's counters into a shared recorder. A nil
// recorder is a no-op, so the disabled path costs a single branch per
// query; the per-cell hot loops never touch an atomic.
func (s Stats) Record(rec *stats.Recorder) {
	if rec == nil {
		return
	}
	c := &rec.Core
	c.Evaluations.Add(1)
	c.SL1CellsPopped.Add(int64(s.CellAccesses))
	c.SL2SegmentsPopped.Add(int64(s.SL2Accesses))
	c.SL3SegmentsPopped.Add(int64(s.SL3Accesses))
	c.FilterIterations.Add(int64(s.FilterIterations))
	c.CellVisits.Add(int64(s.CellVisits))
	c.SegmentsSeen.Add(int64(s.SegmentsSeen))
	c.SegmentsFinal.Add(int64(s.SegmentsFinal))
	c.RefineDrained.Add(int64(s.RefineDrained))
	c.BuildListsNanos.Add(s.BuildListsTime.Nanoseconds())
	c.FilterNanos.Add(s.FilterTime.Nanoseconds())
	c.RefineNanos.Add(s.RefineTime.Nanoseconds())
}

// Total returns the end-to-end evaluation time.
func (s Stats) Total() time.Duration {
	return s.BuildListsTime + s.FilterTime + s.RefineTime
}

// Interest computes the mass-density interest of Definition 2:
// mass / (2ε·len + πε²).
func Interest(mass, length, eps float64) float64 {
	return mass / (2*eps*length + math.Pi*eps*eps)
}
