package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/poi"
)

// slabFromIndex builds a standalone SlabIndex over the same data and cell
// size as an existing index.
func slabFromIndex(t *testing.T, ix *Index) *SlabIndex {
	t.Helper()
	six, err := NewSlabIndex(ix.Network(), ix.POIs(), IndexConfig{CellSize: ix.six.slab.CellSize})
	if err != nil {
		t.Fatal(err)
	}
	return six
}

// TestSlabMatchesMapPath is the core bit-identity property: on random
// scenarios, the slab evaluator must return the same results as the
// exact baseline BL — same floats, same tie-breaks — under both access
// schedules.
func TestSlabMatchesMapPath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		ix := randomScenario(rng)
		six := slabFromIndex(t, ix)
		for _, q := range propertyQueries(rng, ix) {
			want, _, err := ix.Baseline(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := six.SOI(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, "slab vs baseline", got, want)
			rr, _, err := ix.SOIWithStrategy(q, RoundRobin)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, "round-robin vs baseline", rr, want)
		}
	}
}

// TestSlabMatchesMapPathWeighted repeats the bit-identity check over a
// corpus with non-uniform POI weights, which exercises the weighted
// inverted index and mass summation orders.
func TestSlabMatchesMapPathWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		ix := weightedScenario(rng)
		six := slabFromIndex(t, ix)
		for _, q := range propertyQueries(rng, ix) {
			want, _, err := ix.Baseline(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := six.SOI(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, "weighted slab vs baseline", got, want)
		}
	}
}

func weightedScenario(rng *rand.Rand) *Index {
	ix := randomScenario(rng)
	pb := poi.NewBuilder(nil)
	for _, p := range ix.POIs().All() {
		pb.AddWeighted(geo.Point{X: p.Loc.X, Y: p.Loc.Y},
			ix.POIs().Dict().Names(p.Keywords), 0.25+rng.Float64()*3)
	}
	wix, err := NewIndex(ix.Network(), pb.Build(), IndexConfig{CellSize: ix.six.slab.CellSize})
	if err != nil {
		panic(err)
	}
	return wix
}

// TestSlabWithMassCache verifies the slab evaluator with a shared
// MassCache: the cache must warm across repeated queries, and results
// must stay bit-identical to the exact baseline throughout.
func TestSlabWithMassCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := randomScenario(rng)
	six := slabFromIndex(t, ix)
	mc := NewMassCache(0)
	queries := propertyQueries(rng, ix)
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			want, _, err := ix.Baseline(q)
			if err != nil {
				t.Fatal(err)
			}
			got, gs, err := six.SOIContext(context.Background(), q, mc)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, "cached slab vs baseline", got, want)
			if round > 0 && gs.SegmentsFinal > 0 && gs.SegmentCacheHits == 0 && gs.CellVisits > 0 {
				// Warmed rounds should serve at least some masses from the
				// cache when any were stored.
				if mc.Len() > 0 {
					t.Logf("round %d: no cache hits (%d entries); query %+v", round, mc.Len(), q)
				}
			}
		}
	}
	if mc.Len() == 0 {
		t.Fatal("mass cache never admitted an entry")
	}
}

// TestCompactIndexRouting: every Index entry point routes to the index's
// evaluator — same answer and, counter for counter, the same work as
// SOIResolved on it, under either schedule.
func TestCompactIndexRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ix := randomScenario(rng)
	six := ix.SlabIndex()
	ctx := context.Background()
	q := Query{Keywords: []string{"shop", "food"}, K: 3, Epsilon: 0.4}
	query, err := six.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{CostAware, RoundRobin} {
		want, ws, err := six.SOIResolved(ctx, query, q.K, q.Epsilon, strat, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		entries := map[string]func() ([]StreetResult, Stats, error){
			"SOIWithStrategy": func() ([]StreetResult, Stats, error) { return ix.SOIWithStrategy(q, strat) },
			"SOIWithCache":    func() ([]StreetResult, Stats, error) { return ix.SOIWithCache(q, strat, nil) },
			"SOIContext":      func() ([]StreetResult, Stats, error) { return ix.SOIContext(ctx, q, strat, nil) },
		}
		if strat == CostAware {
			entries["SOI"] = func() ([]StreetResult, Stats, error) { return ix.SOI(q) }
		}
		for name, eval := range entries {
			got, gs, err := eval()
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, name+" "+strat.String(), got, want)
			ws.BuildListsTime, ws.FilterTime, ws.RefineTime = 0, 0, 0
			gs.BuildListsTime, gs.FilterTime, gs.RefineTime = 0, 0, 0
			if gs != ws {
				t.Fatalf("%s %v: work differs\n entry:     %+v\n evaluator: %+v", name, strat, gs, ws)
			}
		}
	}
}

// TestIndexFromSlabRoundTrip rebuilds an index from an encoded+decoded
// slab and verifies both access schedules against the original's
// baseline.
func TestIndexFromSlabRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	ix := randomScenario(rng)
	dec, err := grid.DecodeSlab(ix.SlabIndex().Slab().AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	rix, err := NewIndexFromSlab(ix.Network(), ix.POIs(), dec)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range propertyQueries(rng, ix) {
		want, _, err := ix.Baseline(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := rix.SOIWithStrategy(q, CostAware)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "from-slab cost-aware", got, want)
		gotRR, _, err := rix.SOIWithStrategy(q, RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "from-slab round-robin", gotRR, want)
	}
}

// TestSlabContext covers the cancellation surface of the slab path: an
// expired context fails fast, and invalid parameters are rejected.
func TestSlabContext(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := randomScenario(rng)
	six := slabFromIndex(t, ix)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := six.SOIContext(ctx, Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.2}, nil); err == nil {
		t.Fatal("expired context accepted")
	}
	if _, _, err := six.SOI(Query{Keywords: []string{"shop"}, K: 0, Epsilon: 0.2}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := six.SOIResolved(context.Background(), nil, 1, -1, CostAware, nil, nil); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

// TestSlabRunReuse hammers one SlabIndex with many queries from the same
// goroutine so pooled runs are reused across epochs, and cross-checks
// every answer — stale scratch state would surface as a mismatch.
func TestSlabRunReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ix := randomScenario(rng)
	six := slabFromIndex(t, ix)
	queries := propertyQueries(rng, ix)
	for round := 0; round < 40; round++ {
		q := queries[round%len(queries)]
		want, _, err := ix.Baseline(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := six.SOI(q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "reuse", got, want)
	}
}
