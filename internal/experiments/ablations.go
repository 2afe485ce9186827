package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
)

// This file holds the ablation studies of design choices DESIGN.md calls
// out: the SOI source-list access strategy, the street-interest
// aggregation function, and the spatial-grid cell size. None of these
// appear in the paper's evaluation; they quantify the knobs the paper
// leaves open.

// StrategyAblationRow compares the source-list access strategies on one
// query setting, then Drain against the cost-aware schedule over the
// sweep strategySweepQueries(Psi).
type StrategyAblationRow struct {
	City                         string
	Psi                          int
	CostAware, RoundRobin, Drain time.Duration
	// Seen* are the fractions of segments each strategy took out of the
	// unseen state.
	SeenCostAware, SeenRoundRobin, SeenDrain float64

	// Sweep* sum the sweep's per-query medians; a loss is a query slower
	// under Drain than cost-aware, Worst* the loss with the largest ratio.
	SweepQueries, Losses       int
	SweepCostAware, SweepDrain time.Duration
	WorstCostAware, WorstDrain time.Duration
	WorstQuery                 core.Query
}

// strategySweepQueries lists the Drain sweep at |Ψ| = n: the keyword
// progression's prefix, and that prefix with its last keyword replaced
// by the planted "shop" (the streets on which a global LBk closes the
// paper's filter), each at the k and ε of the serving benchmark's sweep.
func strategySweepQueries(n int) []core.Query {
	planted := append([]string{"shop"}, KeywordProgression[:n-1]...)
	var qs []core.Query
	for _, kws := range [][]string{KeywordProgression[:n], planted} {
		for _, k := range []int{1, 3, 5, 10, 20, 30, 50, 100} {
			for _, eps := range []float64{Epsilon / 2, Epsilon, 2 * Epsilon} {
				qs = append(qs, core.Query{Keywords: kws, K: k, Epsilon: eps})
			}
		}
	}
	return qs
}

// AblationStrategy times the cost-aware schedule against the literal
// round-robin of Algorithm 1 and against Drain across the keyword
// progression, and sizes where Drain loses to the cost-aware schedule.
func AblationStrategy(c *City, trials int) ([]StrategyAblationRow, error) {
	var lastErr error
	// timed returns the median time and the fraction of segments seen.
	timed := func(q core.Query, strat core.Strategy) (time.Duration, float64) {
		c.Index.Warm(q.Epsilon)
		var st core.Stats
		d := medianOf(trials, func() {
			_, s, err := c.Index.SOIWithStrategy(q, strat)
			if err != nil {
				lastErr = err
			}
			st = s
		})
		return d, float64(st.SegmentsSeen) / float64(max(st.TotalSegments, 1))
	}
	var rows []StrategyAblationRow
	for n := 1; n <= len(KeywordProgression); n++ {
		q := core.Query{Keywords: KeywordProgression[:n], K: Figure4DefaultK, Epsilon: Epsilon}
		row := StrategyAblationRow{City: c.Name(), Psi: n}
		row.CostAware, row.SeenCostAware = timed(q, core.CostAware)
		row.RoundRobin, row.SeenRoundRobin = timed(q, core.RoundRobin)
		row.Drain, row.SeenDrain = timed(q, core.Drain)
		for _, sq := range strategySweepQueries(n) {
			ca, _ := timed(sq, core.CostAware)
			dr, _ := timed(sq, core.Drain)
			row.SweepQueries++
			row.SweepCostAware += ca
			row.SweepDrain += dr
			if dr <= ca {
				continue
			}
			row.Losses++
			if row.WorstCostAware == 0 || float64(dr)/float64(ca) > float64(row.WorstDrain)/float64(row.WorstCostAware) {
				row.WorstCostAware, row.WorstDrain, row.WorstQuery = ca, dr, sq
			}
		}
		if lastErr != nil {
			return nil, lastErr
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
	line(w, "Ablation: SOI access strategy — %s (times in ms; every schedule returns identical results)", rows[0].City)
	line(w, "%6s %12s %12s %12s %10s %10s %10s", "|Psi|", "cost-aware", "round-robin", "drain", "seen(ca)", "seen(rr)", "seen(dr)")
	for _, r := range rows {
		line(w, "%6d %12s %12s %12s %9.0f%% %9.0f%% %9.0f%%",
			r.Psi, ms(r.CostAware), ms(r.RoundRobin), ms(r.Drain),
			r.SeenCostAware*100, r.SeenRoundRobin*100, r.SeenDrain*100)
	}
	line(w, "Drain against cost-aware over the sweep — %s (per |Psi|: the progression and its \"shop\" variant × 8 k × 3 eps; a loss is a query slower under drain)", rows[0].City)
	line(w, "%6s %8s %12s %12s %7s %8s %10s %10s  %s", "|Psi|", "queries", "sum(ca)", "sum(drain)", "losses", "worst", "ca", "drain", "worst query")
	for _, r := range rows {
		worst, ratio := "-", 0.0
		if r.Losses > 0 {
			worst = fmt.Sprintf("%v k=%d eps=%g", r.WorstQuery.Keywords, r.WorstQuery.K, r.WorstQuery.Epsilon)
			ratio = float64(r.WorstDrain) / float64(r.WorstCostAware)
		}
		line(w, "%6d %8d %12s %12s %7d %7.2fx %10s %10s  %s",
			r.Psi, r.SweepQueries, ms(r.SweepCostAware), ms(r.SweepDrain),
			r.Losses, ratio, ms(r.WorstCostAware), ms(r.WorstDrain), worst)
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
