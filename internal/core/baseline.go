package core

import (
	"fmt"
	"time"

	"repro/internal/network"
)

// Aggregate selects how a street's interest is derived from its segments.
// The paper uses MaxSegment (Definition 3, Eq. 1); the others are the
// "several alternatives" the paper mentions, kept as ablation options of
// the baseline evaluator.
type Aggregate int

const (
	// MaxSegment takes the maximum segment interest (the paper's Eq. 1).
	MaxSegment Aggregate = iota
	// MeanSegment averages segment interests over the street.
	MeanSegment
	// TotalDensity divides the street's total mass by its total
	// ε-neighborhood area, treating the street as one long segment.
	TotalDensity
)

// String implements fmt.Stringer.
func (a Aggregate) String() string {
	switch a {
	case MaxSegment:
		return "max-segment"
	case MeanSegment:
		return "mean-segment"
	case TotalDensity:
		return "total-density"
	default:
		return fmt.Sprintf("aggregate(%d)", int(a))
	}
}

// Baseline evaluates a k-SOI query exactly, the paper's BL: it uses only
// the spatial grid — the slab's cell membership and the ε-plan's Cε(ℓ),
// none of the inverted indexes or source lists — to compute the interest
// of every segment, then ranks streets. It returns the same result set as
// SOI (up to ties at the k-th interest value).
func (ix *Index) Baseline(q Query) ([]StreetResult, Stats, error) {
	return ix.BaselineAggregate(q, MaxSegment)
}

// BaselineAggregate is Baseline with a configurable street aggregation.
func (ix *Index) BaselineAggregate(q Query, agg Aggregate) ([]StreetResult, Stats, error) {
	query, err := ix.resolve(q)
	if err != nil {
		return nil, Stats{}, err
	}
	var stats Stats
	stats.TotalSegments = ix.net.NumSegments()
	stats.TotalCells = ix.slab.NumCells()

	start := time.Now()
	plan := ix.plan(q.Epsilon)
	stats.BuildListsTime = time.Since(start)

	start = time.Now()
	masses := make([]float64, ix.net.NumSegments())
	for sid := range masses {
		var m float64
		for _, ord := range plan.segCell[plan.segCellOff[sid]:plan.segCellOff[sid+1]] {
			m += ix.cellMassScan(int(ord), query, network.SegmentID(sid), q.Epsilon)
			stats.CellVisits++
		}
		masses[sid] = m
		stats.SegmentAccesses++
	}
	stats.SegmentsSeen = len(masses)
	stats.SegmentsFinal = len(masses)
	stats.FilterTime = time.Since(start)

	start = time.Now()
	out := aggregateStreets(ix.net, masses, q.Epsilon, agg)
	if len(out) > q.K {
		out = out[:q.K]
	}
	stats.RefineTime = time.Since(start)
	return out, stats, nil
}

// aggregateStreets folds exact segment masses into ranked street results.
func aggregateStreets(net *network.Network, masses []float64, eps float64, agg Aggregate) []StreetResult {
	out := make([]StreetResult, 0, 64)
	for i := range net.Streets() {
		st := net.Street(network.StreetID(i))
		var (
			res       StreetResult
			sumInt    float64
			sumMass   float64
			sumLength float64
			bestSet   bool
		)
		for _, sid := range st.Segments {
			m := masses[sid]
			seg := net.Segment(sid)
			in := Interest(m, seg.Length(), eps)
			sumInt += in
			sumMass += m
			sumLength += seg.Length()
			if !bestSet || in > res.Interest {
				bestSet = true
				res.Interest = in
				res.BestSegment = sid
				res.Mass = m
			}
		}
		switch agg {
		case MeanSegment:
			res.Interest = sumInt / float64(len(st.Segments))
		case TotalDensity:
			res.Interest = Interest(sumMass, sumLength, eps)
		}
		if res.Interest <= 0 {
			continue
		}
		res.Street = st.ID
		res.Name = st.Name
		out = append(out, res)
	}
	SortResults(out)
	return out
}
