package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/poi"
)

// TestSlabMatchesMapPath is the core bit-identity property: on random
// scenarios, the slab evaluator must return the same results as the
// exact baseline BL — same floats, same tie-breaks — under both access
// schedules.
func TestSlabMatchesMapPath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		ix := randomScenario(rng)
		for _, q := range propertyQueries(rng, ix) {
			want, _, err := ix.Baseline(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ix.SOI(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, "slab vs baseline", got, want)
			dr, _, err := ix.SOIWithStrategy(q, Drain)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, "drain vs baseline", dr, want)
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
		for _, q := range propertyQueries(rng, ix) {
			want, _, err := ix.Baseline(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ix.SOI(q)
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
	wix, err := NewIndex(ix.Network(), pb.Build(), IndexConfig{CellSize: ix.slab.CellSize})
	if err != nil {
		panic(err)
	}
	return wix
}

// TestCompactIndexRouting: every Index entry point routes to the index's
// evaluator — same answer and, counter for counter, the same work as
// soiResolved on it, under either schedule.
func TestCompactIndexRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ix := randomScenario(rng)
	ctx := context.Background()
	q := Query{Keywords: []string{"shop", "food"}, K: 3, Epsilon: 0.4}
	query, err := ix.resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{CostAware, Drain} {
		want, ws, err := ix.soiResolved(ctx, query, q.K, q.Epsilon, strat, nil)
		if err != nil {
			t.Fatal(err)
		}
		entries := map[string]func() ([]StreetResult, Stats, error){
			"SOIWithStrategy": func() ([]StreetResult, Stats, error) { return ix.SOIWithStrategy(q, strat) },
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
	dec, err := grid.DecodeSlab(ix.Slab().AppendBinary(nil))
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
		gotDrain, _, err := rix.SOIWithStrategy(q, Drain)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "from-slab drain", gotDrain, want)
	}
}

// TestSlabContext covers the cancellation surface of the slab path: an
// expired context fails fast, and invalid parameters are rejected.
func TestSlabContext(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := randomScenario(rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ix.SOIContext(ctx, Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.2}, CostAware, nil); err == nil {
		t.Fatal("expired context accepted")
	}
	if _, _, err := ix.SOI(Query{Keywords: []string{"shop"}, K: 0, Epsilon: 0.2}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := ix.soiResolved(context.Background(), nil, 1, -1, CostAware, nil); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

// TestSlabRunReuse hammers one Index with many queries from the same
// goroutine so pooled runs are reused across epochs, and cross-checks
// every answer — stale scratch state would surface as a mismatch.
func TestSlabRunReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ix := randomScenario(rng)
	queries := propertyQueries(rng, ix)
	for round := 0; round < 40; round++ {
		q := queries[round%len(queries)]
		want, _, err := ix.Baseline(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix.SOI(q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "reuse", got, want)
	}
}
