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

	// The paper's keyword progression, one query per prefix, evaluated
	// twice over one shared mass cache: the first pass computes every
	// exact mass (all misses), the second answers them from the cache, so
	// the hit/miss split is part of the golden contract too.
	progression := []string{"religion", "education", "food", "services"}
	rec := stats.NewRecorder()
	mc := NewMassCache(0)
	for pass := 0; pass < 2; pass++ {
		for n := 1; n <= len(progression); n++ {
			q := Query{Keywords: progression[:n], K: 10, Epsilon: epsilon}
			_, st, err := ix.SOIContext(context.Background(), q, CostAware, mc)
			if err != nil {
				t.Fatalf("pass %d, query ψ=%d: %v", pass, n, err)
			}
			st.Record(rec)
		}
	}
	// One literal Algorithm 1 schedule on a cold mass cache, so the SL2
	// counter (zero under the cost-aware schedule on this workload) is
	// exercised too.
	q := Query{Keywords: progression, K: 10, Epsilon: epsilon}
	_, st, err := ix.SOIContext(context.Background(), q, RoundRobin, NewMassCache(0))
	if err != nil {
		t.Fatal(err)
	}
	st.Record(rec)

	got := rec.Snapshot().Core
	want := stats.CoreSnapshot{
		Evaluations:       9,
		SL1CellsPopped:    3065,
		SL2SegmentsPopped: 164,
		SL3SegmentsPopped: 180,
		FilterIterations:  3402,
		CellVisits:        13723,
		SegmentsSeen:      4976,
		SegmentsFinal:     463,
		MassCacheHits:     62,
		MassCacheMisses:   401,
		RefineDrained:     59,
	}
	// Wall-clock fields vary run to run; compare only the counters.
	got.BuildListsNanos, got.FilterNanos, got.RefineNanos = 0, 0, 0
	if got != want {
		t.Fatalf("pruning counters drifted:\n got %+v\nwant %+v", got, want)
	}

	// The same two passes under Drain, on a recorder and a mass cache of
	// their own. SL1CellsPopped is the relevant cells it walked; it pops
	// no list and compares no bound, so the other filter counters are 0.
	recDrain := stats.NewRecorder()
	mcDrain := NewMassCache(0)
	for pass := 0; pass < 2; pass++ {
		for n := 1; n <= len(progression); n++ {
			q := Query{Keywords: progression[:n], K: 10, Epsilon: epsilon}
			_, st, err := ix.SOIContext(context.Background(), q, Drain, mcDrain)
			if err != nil {
				t.Fatalf("drain pass %d, query ψ=%d: %v", pass, n, err)
			}
			st.Record(recDrain)
		}
	}
	gotDrain := recDrain.Snapshot().Core
	wantDrain := stats.CoreSnapshot{
		Evaluations:     8,
		SL1CellsPopped:  2900,
		CellVisits:      1731,
		SegmentsSeen:    4508,
		SegmentsFinal:   284,
		MassCacheHits:   142,
		MassCacheMisses: 142,
		RefineDrained:   142,
	}
	gotDrain.BuildListsNanos, gotDrain.FilterNanos, gotDrain.RefineNanos = 0, 0, 0
	if gotDrain != wantDrain {
		t.Fatalf("drain pruning counters drifted:\n got %+v\nwant %+v", gotDrain, wantDrain)
	}
}
