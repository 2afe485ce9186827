package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
)

// propertyQueries builds a mixed query workload over a random scenario,
// deliberately including the edge shapes the engine must handle: k larger
// than the street count, ε larger than the network extent, and keyword
// sets unknown to the corpus.
func propertyQueries(rng *rand.Rand, ix *Index) []Query {
	nStreets := ix.Network().NumStreets()
	return []Query{
		{Keywords: []string{"shop"}, K: rng.Intn(4) + 1, Epsilon: 0.05 + rng.Float64()*0.4},
		{Keywords: []string{"shop", "food"}, K: nStreets + 7, Epsilon: 0.05 + rng.Float64()*0.4},
		// The scenario fits in a 10×10 box; ε=40 covers it from anywhere.
		{Keywords: []string{"museum", "park"}, K: rng.Intn(4) + 1, Epsilon: 40},
		{Keywords: []string{"zeppelin", "submarine"}, K: 3, Epsilon: 0.2},
		{Keywords: []string{"school", "shop", "museum"}, K: nStreets, Epsilon: 0.01},
	}
}

// TestPropertyStrategiesMatchBaseline is the property-based equivalence
// test: on random scenarios, both access schedules, on one index, must
// agree bit-exactly with each other and with the exact baseline, and
// behave sensibly on the edge-case queries. A single-keyword SL1 aliases
// the slab's inverted index, which no schedule may write to — Drain least
// of all, since it is the one that leaves SL1 unsorted.
func TestPropertyStrategiesMatchBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		ix := randomScenario(rng)
		invCell := slices.Clone(ix.slab.InvCell)
		invWeight := slices.Clone(ix.slab.InvWeight)
		for _, q := range propertyQueries(rng, ix) {
			ca, _, err := ix.SOIWithStrategy(q, CostAware)
			if err != nil {
				t.Fatal(err)
			}
			dr, _, err := ix.SOIWithStrategy(q, Drain)
			if err != nil {
				t.Fatal(err)
			}
			// The two schedules traverse differently but fold masses
			// canonically, so their answers are identical to the bit.
			requireSameResults(t, "cost-aware vs drain", ca, dr)
			if !slices.Equal(ix.slab.InvCell, invCell) || !slices.Equal(ix.slab.InvWeight, invWeight) {
				t.Fatalf("query %+v wrote to the slab's inverted index", q)
			}
			bl, _, err := ix.Baseline(q)
			if err != nil {
				t.Fatal(err)
			}
			// The baseline folds each segment's cells in the same canonical
			// order, so it is the same answer to the bit as well.
			requireSameResults(t, "strategies vs baseline", ca, bl)
			if len(ca) > q.K {
				t.Fatalf("got %d results for k=%d", len(ca), q.K)
			}
			if len(ca) > ix.Network().NumStreets() {
				t.Fatalf("got %d results for %d streets", len(ca), ix.Network().NumStreets())
			}
		}
	}
}

// TestPropertyInvalidQueriesAgree: queries rejected by validation (empty
// keyword set, k=0, non-positive or non-finite ε) must fail identically
// across both schedules and the baseline, never panic or return partial
// results — and must not leave an ε-plan behind: a NaN key could never be
// looked up or evicted again.
func TestPropertyInvalidQueriesAgree(t *testing.T) {
	ix := buildFixture(t)
	invalid := []Query{
		{K: 1, Epsilon: 0.1},                            // empty keywords
		{Keywords: []string{}, K: 1, Epsilon: 0.1},      // empty keywords
		{Keywords: []string{"shop"}, K: 0, Epsilon: 1},  // k = 0
		{Keywords: []string{"shop"}, K: -3, Epsilon: 1}, // negative k
		{Keywords: []string{"shop"}, K: 1, Epsilon: 0},  // zero ε
		{Keywords: []string{"shop"}, K: 1, Epsilon: math.NaN()},
		{Keywords: []string{"shop"}, K: 1, Epsilon: math.Inf(1)},
		{Keywords: []string{"shop"}, K: 1, Epsilon: math.Inf(-1)},
	}
	for _, q := range invalid {
		res, _, errCA := ix.SOIWithStrategy(q, CostAware)
		if errCA == nil || res != nil {
			t.Fatalf("cost-aware accepted %+v", q)
		}
		_, _, errDR := ix.SOIWithStrategy(q, Drain)
		_, _, errBL := ix.Baseline(q)
		if errDR == nil || errBL == nil {
			t.Fatalf("schedules disagree on %+v: drain=%v bl=%v", q, errDR, errBL)
		}
		if errCA.Error() != errDR.Error() || errCA.Error() != errBL.Error() {
			t.Fatalf("error text differs: %q / %q / %q", errCA, errDR, errBL)
		}
		if _, err := ix.UnseenBound(q); err == nil {
			t.Fatalf("UnseenBound accepted %+v", q)
		}
		// soiResolved is reachable without Validate; k and ε are its own
		// to check.
		if len(q.Keywords) > 0 {
			if _, _, err := ix.soiResolved(context.Background(), nil, q.K, q.Epsilon, CostAware, nil); err == nil {
				t.Fatalf("soiResolved accepted %+v", q)
			}
		}
	}
	if n := len(ix.plans); n != 0 {
		t.Fatalf("refused queries left %d ε-plans behind", n)
	}
}

// TestPropertyRankPrefix pins the invariant the batch executor's
// coalescing relies on: the top-k answer is bit-for-bit the first k
// entries of any larger-k answer for the same ⟨Ψ, ε⟩.
func TestPropertyRankPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 20; trial++ {
		ix := randomScenario(rng)
		eps := 0.05 + rng.Float64()*0.5
		kws := []string{"shop", "food"}
		big, _, err := ix.SOI(Query{Keywords: kws, K: 50, Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 5, 8} {
			small, _, err := ix.SOI(Query{Keywords: kws, K: k, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			want := big
			if len(want) > k {
				want = want[:k]
			}
			requireSameResults(t, "prefix", small, want)
		}
	}
}

// TestConcurrentSharedIndex is the core-level concurrency test: many
// goroutines evaluate a mixed workload (both schedules, shared ε-memos)
// against one Index, and every answer must equal the sequential one
// bit-for-bit. Run under -race this also proves the index
// read paths are race-free.
func TestConcurrentSharedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ix := randomScenario(rng)
	var queries []Query
	for i := 0; i < 12; i++ {
		queries = append(queries, Query{
			Keywords: [][]string{{"shop"}, {"food", "park"}, {"museum"}}[i%3],
			K:        i%5 + 1,
			Epsilon:  []float64{0.1, 0.25, 0.4}[i%3],
		})
	}
	strategies := []Strategy{CostAware, Drain}
	want := make([][]StreetResult, len(queries)*len(strategies))
	for qi, q := range queries {
		for si, strat := range strategies {
			res, _, err := ix.SOIWithStrategy(q, strat)
			if err != nil {
				t.Fatal(err)
			}
			want[qi*len(strategies)+si] = res
		}
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for qi, q := range queries {
					for si, strat := range strategies {
						res, _, err := ix.SOIWithStrategy(q, strat)
						if err != nil {
							errs <- err
							return
						}
						if !bitEqualResults(res, want[qi*len(strategies)+si]) {
							errs <- &mismatchError{goroutine: g, query: qi}
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct{ goroutine, query int }

func (e *mismatchError) Error() string {
	return "concurrent result mismatch"
}

// requireSameResults asserts two result lists are identical to the bit.
func requireSameResults(t *testing.T, label string, got, want []StreetResult) {
	t.Helper()
	if !bitEqualResults(got, want) {
		t.Fatalf("%s: results differ\n got: %+v\nwant: %+v", label, got, want)
	}
}

func bitEqualResults(a, b []StreetResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Street != b[i].Street ||
			a[i].BestSegment != b[i].BestSegment ||
			math.Float64bits(a[i].Interest) != math.Float64bits(b[i].Interest) ||
			math.Float64bits(a[i].Mass) != math.Float64bits(b[i].Mass) {
			return false
		}
	}
	return true
}

// TestGoldenTieBreak is the deterministic tie-breaking audit: six
// congruent streets carry identical POI constellations, so their
// interests are exactly equal, and every evaluation path must break the
// tie by ascending street id — on every repetition, regardless of map
// iteration order.
func TestGoldenTieBreak(t *testing.T) {
	nb := network.NewBuilder()
	pb := poi.NewBuilder(nil)
	const streets = 6
	for i := 0; i < streets; i++ {
		// Spacing 3.0 keeps the ε-neighborhoods disjoint.
		y := float64(i) * 3
		nb.AddStreet("tied", []geo.Point{geo.Pt(0, y), geo.Pt(2, y)})
		pb.Add(geo.Pt(0.4, y+0.05), []string{"shop"})
		pb.Add(geo.Pt(1.1, y-0.05), []string{"shop"})
		pb.Add(geo.Pt(1.7, y+0.02), []string{"shop"})
	}
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(net, pb.Build(), IndexConfig{CellSize: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.2}
	golden := []network.StreetID{0, 1, 2}
	for rep := 0; rep < 25; rep++ {
		for _, strat := range []Strategy{CostAware, Drain} {
			res, _, err := ix.SOIWithStrategy(q, strat)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(golden) {
				t.Fatalf("%v rep %d: %d results, want %d", strat, rep, len(res), len(golden))
			}
			for i, want := range golden {
				if res[i].Street != want {
					t.Fatalf("%v rep %d rank %d: street %d, want %d (ties must break by id)",
						strat, rep, i, res[i].Street, want)
				}
			}
			for i := 1; i < len(res); i++ {
				if math.Float64bits(res[i].Interest) != math.Float64bits(res[0].Interest) {
					t.Fatalf("%v: interests not exactly tied: %v vs %v",
						strat, res[i].Interest, res[0].Interest)
				}
			}
		}
		bl, _, err := ix.Baseline(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range golden {
			if bl[i].Street != want {
				t.Fatalf("baseline rep %d rank %d: street %d, want %d", rep, i, bl[i].Street, want)
			}
		}
	}
}
