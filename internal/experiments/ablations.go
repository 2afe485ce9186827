package experiments

import (
	"io"
	"time"

	"repro/internal/core"
)

// This file holds the ablation studies of design choices DESIGN.md calls
// out: the SOI source-list access strategy, the street-interest
// aggregation function, and the spatial-grid cell size. None of these
// appear in the paper's evaluation; they quantify the knobs the paper
// leaves open.

// StrategyAblationRow compares the two source-list access strategies on
// one query setting.
type StrategyAblationRow struct {
	City       string
	Psi        int
	CostAware  time.Duration
	RoundRobin time.Duration
	// SeenCostAware/SeenRoundRobin are the fractions of segments each
	// strategy left the unseen state.
	SeenCostAware  float64
	SeenRoundRobin float64
}

// AblationStrategy times the cost-aware schedule against the literal
// round-robin of Algorithm 1 across the keyword progression.
func AblationStrategy(c *City, trials int) ([]StrategyAblationRow, error) {
	var rows []StrategyAblationRow
	for n := 1; n <= len(KeywordProgression); n++ {
		q := core.Query{Keywords: KeywordProgression[:n], K: Figure4DefaultK, Epsilon: Epsilon}
		row := StrategyAblationRow{City: c.Name(), Psi: n}
		var caStats, rrStats core.Stats
		var lastErr error
		row.CostAware = medianOf(trials, func() {
			_, s, err := c.Index.SOIWithStrategy(q, core.CostAware)
			if err != nil {
				lastErr = err
			}
			caStats = s
		})
		row.RoundRobin = medianOf(trials, func() {
			_, s, err := c.Index.SOIWithStrategy(q, core.RoundRobin)
			if err != nil {
				lastErr = err
			}
			rrStats = s
		})
		if lastErr != nil {
			return nil, lastErr
		}
		if caStats.TotalSegments > 0 {
			row.SeenCostAware = float64(caStats.SegmentsSeen) / float64(caStats.TotalSegments)
			row.SeenRoundRobin = float64(rrStats.SegmentsSeen) / float64(rrStats.TotalSegments)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintAblationStrategy renders the strategy ablation.
func PrintAblationStrategy(w io.Writer, rows []StrategyAblationRow) {
	if len(rows) == 0 {
		return
	}
	line(w, "Ablation: SOI access strategy — %s (times in ms; both return identical results)", rows[0].City)
	line(w, "%6s %12s %12s %10s %10s", "|Psi|", "cost-aware", "round-robin", "seen(ca)", "seen(rr)")
	for _, r := range rows {
		line(w, "%6d %12s %12s %9.0f%% %9.0f%%",
			r.Psi, ms(r.CostAware), ms(r.RoundRobin), r.SeenCostAware*100, r.SeenRoundRobin*100)
	}
}

// AggregateAblationRow compares a street-interest aggregation mode to the
// paper's MaxSegment.
type AggregateAblationRow struct {
	City      string
	Aggregate core.Aggregate
	// Overlap is |top-k ∩ top-k(MaxSegment)| / k.
	Overlap float64
	// TopStreet is the highest-ranked street under the mode.
	TopStreet string
}

// AblationAggregate contrasts the three street aggregation functions on
// the Table 2 query, reporting how much of the paper's top-k survives a
// change of aggregation.
func AblationAggregate(c *City, k int) ([]AggregateAblationRow, error) {
	q := core.Query{Keywords: []string{"shop"}, K: k, Epsilon: Epsilon}
	ref, _, err := c.Index.BaselineAggregate(q, core.MaxSegment)
	if err != nil {
		return nil, err
	}
	refSet := make(map[string]bool, len(ref))
	for _, r := range ref {
		refSet[r.Name] = true
	}
	var rows []AggregateAblationRow
	for _, agg := range []core.Aggregate{core.MaxSegment, core.MeanSegment, core.TotalDensity} {
		res, _, err := c.Index.BaselineAggregate(q, agg)
		if err != nil {
			return nil, err
		}
		row := AggregateAblationRow{City: c.Name(), Aggregate: agg}
		hits := 0
		for _, r := range res {
			if refSet[r.Name] {
				hits++
			}
		}
		if len(ref) > 0 {
			row.Overlap = float64(hits) / float64(len(ref))
		}
		if len(res) > 0 {
			row.TopStreet = res[0].Name
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintAblationAggregate renders the aggregation ablation.
func PrintAblationAggregate(w io.Writer, rows []AggregateAblationRow) {
	if len(rows) == 0 {
		return
	}
	line(w, "Ablation: street aggregation — %s (\"shop\" query, overlap with the paper's max-segment top-k)", rows[0].City)
	line(w, "%-15s %10s   %s", "aggregate", "overlap", "top street")
	for _, r := range rows {
		line(w, "%-15s %9.0f%%   %s", r.Aggregate, r.Overlap*100, r.TopStreet)
	}
}

// CellSizeAblationRow reports query latency as a function of the grid
// cell size.
type CellSizeAblationRow struct {
	City      string
	CellSize  float64
	IndexTime time.Duration
	WarmTime  time.Duration
	SOITime   time.Duration
	BLTime    time.Duration
	Cells     int
}

// AblationCellSize rebuilds the index at several grid cell sizes and
// measures the default query under each. The paper leaves the cell size
// "arbitrary"; this quantifies the trade-off around the ε-sized default.
func AblationCellSize(c *City, sizes []float64, trials int) ([]CellSizeAblationRow, error) {
	q := core.Query{Keywords: KeywordProgression[:Figure4DefaultPsi], K: Figure4DefaultK, Epsilon: Epsilon}
	var rows []CellSizeAblationRow
	for _, size := range sizes {
		row := CellSizeAblationRow{City: c.Name(), CellSize: size}
		start := time.Now()
		ix, err := core.NewIndex(c.Dataset.Network, c.Dataset.POIs, core.IndexConfig{CellSize: size})
		if err != nil {
			return nil, err
		}
		row.IndexTime = time.Since(start)
		start = time.Now()
		ix.Warm(Epsilon)
		row.WarmTime = time.Since(start)
		row.Cells = ix.Slab().NumCells()
		var lastErr error
		row.SOITime = medianOf(trials, func() {
			if _, _, err := ix.SOI(q); err != nil {
				lastErr = err
			}
		})
		row.BLTime = medianOf(trials, func() {
			if _, _, err := ix.Baseline(q); err != nil {
				lastErr = err
			}
		})
		if lastErr != nil {
			return nil, lastErr
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DefaultCellSizes is the sweep of AblationCellSize: around the ε-sized
// default in both directions.
var DefaultCellSizes = []float64{Epsilon / 2, Epsilon, 2 * Epsilon, 4 * Epsilon}

// PrintAblationCellSize renders the cell-size ablation.
func PrintAblationCellSize(w io.Writer, rows []CellSizeAblationRow) {
	if len(rows) == 0 {
		return
	}
	line(w, "Ablation: grid cell size — %s (|Psi|=3, k=50; times in ms)", rows[0].City)
	line(w, "%10s %10s %10s %10s %10s %10s", "cell", "index", "warm", "SOI", "BL", "cells")
	for _, r := range rows {
		line(w, "%10.5f %10s %10s %10s %10s %10d",
			r.CellSize, ms(r.IndexTime), ms(r.WarmTime), ms(r.SOITime), ms(r.BLTime), r.Cells)
	}
}
