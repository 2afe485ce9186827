package core

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/stats"
)

// TestGoldenPruningCounts pins the exact observability counters of a
// fixed-seed workload. The synthetic city, the index construction and
// Algorithm 1 are all deterministic, so any drift in these numbers means
// the pruning behavior changed — a change that must be deliberate, since
// the counters are the paper's Section 6 efficiency evidence. Update the
// expected values only alongside an intentional algorithm change.
func TestGoldenPruningCounts(t *testing.T) {
	ds, err := datagen.Generate(datagen.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	const epsilon = 0.0005
	ix, err := NewIndex(ds.Network, ds.POIs, IndexConfig{CellSize: epsilon})
	if err != nil {
		t.Fatal(err)
	}

	// The paper's keyword progression, one query per prefix, under each
	// schedule. The cost-aware run adds "shop" at ε/2, where a segment with
	// an outlier cell count heads SL2, so the SL2 access path is pinned
	// too. Drain's SL1CellsPopped is the relevant cells it walked; it pops
	// no list and compares no bound, so its other filter counters are 0.
	progression := []string{"religion", "education", "food", "services"}
	counters := func(strat Strategy, qs []Query) stats.CoreSnapshot {
		rec := stats.NewRecorder()
		for _, q := range qs {
			_, st, err := ix.SOIContext(context.Background(), q, strat, nil)
			if err != nil {
				t.Fatalf("%v %+v: %v", strat, q, err)
			}
			st.Record(rec)
		}
		got := rec.Snapshot().Core
		// Wall-clock fields vary run to run; compare only the counters.
		got.BuildListsNanos, got.FilterNanos, got.RefineNanos = 0, 0, 0
		return got
	}
	var prefixes []Query
	for n := 1; n <= len(progression); n++ {
		prefixes = append(prefixes, Query{Keywords: progression[:n], K: 10, Epsilon: epsilon})
	}
	sl2 := Query{Keywords: []string{"shop"}, K: 10, Epsilon: epsilon / 2}
	wantCostAware := stats.CoreSnapshot{
		Evaluations:       5,
		SL1CellsPopped:    1921,
		SL2SegmentsPopped: 1,
		SL3SegmentsPopped: 10,
		FilterIterations:  1926,
		CellVisits:        6520,
		SegmentsSeen:      2595,
		SegmentsFinal:     137,
		RefineDrained:     69,
	}
	if got := counters(CostAware, append(prefixes, sl2)); got != wantCostAware {
		t.Fatalf("cost-aware pruning counters drifted:\n got %+v\nwant %+v", got, wantCostAware)
	}
	wantDrain := stats.CoreSnapshot{
		Evaluations:    4,
		SL1CellsPopped: 1450,
		CellVisits:     1731,
		SegmentsSeen:   2254,
		SegmentsFinal:  142,
		RefineDrained:  142,
	}
	if got := counters(Drain, prefixes); got != wantDrain {
		t.Fatalf("drain pruning counters drifted:\n got %+v\nwant %+v", got, wantDrain)
	}
}
