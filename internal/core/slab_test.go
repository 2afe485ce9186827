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

// TestSlabWithMassCache verifies the slab evaluator with a shared
// MassCache: the cache must warm across repeated queries, and results
// must stay bit-identical to the exact baseline throughout.
func TestSlabWithMassCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := randomScenario(rng)
	mc := NewMassCache(0)
	queries := propertyQueries(rng, ix)
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			want, _, err := ix.Baseline(q)
			if err != nil {
				t.Fatal(err)
			}
			got, gs, err := ix.SOIContext(context.Background(), q, CostAware, mc)
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
	for _, strat := range []Strategy{CostAware, RoundRobin} {
		want, ws, err := ix.soiResolved(ctx, query, q.K, q.Epsilon, strat, nil, nil)
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ix.SOIContext(ctx, Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.2}, CostAware, nil); err == nil {
		t.Fatal("expired context accepted")
	}
	if _, _, err := ix.SOI(Query{Keywords: []string{"shop"}, K: 0, Epsilon: 0.2}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := ix.soiResolved(context.Background(), nil, 1, -1, CostAware, nil, nil); err == nil {
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

// TestMassCacheInternsWithinBudget: a static index's cache lives as long
// as the process, so the keyword sets it interns are charged against the
// entry budget like the masses they key. A sweep over more distinct sets
// than the budget must leave the intern table bounded, and the sets it
// refused evaluate uncached — same answers, bit for bit, both times round.
func TestMassCacheInternsWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := randomScenario(rng)
	words := []string{"shop", "food", "museum", "park", "school"}
	const budget = 8
	mc := NewMassCache(budget)
	for round := 0; round < 2; round++ {
		for set := 1; set < 1<<len(words); set++ {
			q := Query{K: 3, Epsilon: 0.4}
			for i, w := range words {
				if set&(1<<i) != 0 {
					q.Keywords = append(q.Keywords, w)
				}
			}
			want, _, err := ix.SOIContext(context.Background(), q, CostAware, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ix.SOIContext(context.Background(), q, CostAware, mc)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, "cached vs uncached", got, want)
		}
	}
	if n := len(mc.psis); n == 0 || n > budget {
		t.Fatalf("%d keyword sets interned under a budget of %d entries", n, budget)
	}
	if n := len(mc.psis) + mc.Len(); n > budget {
		t.Fatalf("%d sets and masses held under a budget of %d entries", n, budget)
	}
}
