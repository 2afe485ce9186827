package soi

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/oracle"
)

// The benchmark's describe parameter grid (bench/gen.go), the one the
// diversify golden tests sweep; BenchmarkDescribeWarm cycles its (k, λ, w).
var (
	memoGridK      = []int{3, 4, 5, 6, 8}
	memoGridLambda = []float64{0.3, 0.5, 0.7}
	memoGridW      = []float64{0.3, 0.5, 0.7}
	memoGridRho    = []float64{0.0001, 0.0002}
)

func forEachMemoGridPoint(fn func(p SummaryParams)) {
	for _, rho := range memoGridRho {
		for _, k := range memoGridK {
			for _, l := range memoGridLambda {
				for _, w := range memoGridW {
					fn(SummaryParams{K: k, Lambda: l, W: w, Rho: rho, Epsilon: 0.0005})
				}
			}
		}
	}
}

// sameSummary compares two describe outcomes the way the memo must keep
// them: same error, same photos in the same order, the same objective
// bits and candidate count.
func sameSummary(a Summary, aErr error, b Summary, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return a.Street == b.Street && a.CandidateCount == b.CandidateCount &&
		math.Float64bits(a.Objective) == math.Float64bits(b.Objective) &&
		reflect.DeepEqual(a.Photos, b.Photos)
}

// TestDescribeMemoMatchesFreshEngine: memo ≡ no memo. On every street of
// the oracle matrix worlds of seeds 0..3, under the whole 90-point (k, λ,
// w, ρ) grid, an engine that has served the street before — so answers
// from its memoised context — returns what an engine that has never seen
// the street returns, and so does its second describe of the same grid
// point, answered from its summary memo. The fresh side is a new engine
// per grid point, so every one of its describes is a first touch; the
// counters check that each side really took the path it stands for.
func TestDescribeMemoMatchesFreshEngine(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, cfg := range oracle.MatrixConfigs(seed, false) {
			w, err := cfg.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			net, pois, photos, _, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			warm, err := NewEngineFromCorpora(net, pois, photos, Config{})
			if err != nil {
				t.Fatal(err)
			}
			described := 0
			forEachMemoGridPoint(func(p SummaryParams) {
				fresh, err := NewEngineFromCorpora(net, pois, photos, Config{})
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range net.Streets() {
					got, gotErr := warm.DescribeStreet(st.Name, p)
					want, wantErr := fresh.DescribeStreet(st.Name, p)
					hit, hitErr := warm.DescribeStreet(st.Name, p)
					if gotErr == nil {
						described++
					}
					if !sameSummary(got, gotErr, want, wantErr) {
						t.Fatalf("%s street %q %+v:\n warm %+v, %v\nfresh %+v, %v",
							cfg.Label(), st.Name, p, got, gotErr, want, wantErr)
					}
					if !sameSummary(hit, hitErr, want, wantErr) {
						t.Fatalf("%s street %q %+v:\n  hit %+v, %v\nfresh %+v, %v",
							cfg.Label(), st.Name, p, hit, hitErr, want, wantErr)
					}
				}
				if d := fresh.StatsSnapshot().Diversify; d.ContextMemoHits != 0 || d.SummaryMemoHits != 0 {
					t.Fatalf("%s: the fresh engine answered %d describes from its context memo, %d from its summary memo",
						cfg.Label(), d.ContextMemoHits, d.SummaryMemoHits)
				}
			})
			d := warm.StatsSnapshot().Diversify
			if d.SummaryMemoHits != int64(described) || d.SummaryMemoMisses != int64(described) {
				t.Errorf("%s: summary memo hits = %d, misses = %d, want %d each", cfg.Label(),
					d.SummaryMemoHits, d.SummaryMemoMisses, described)
			}
			if d.SummaryMemoPhotos != warm.summaries.Weight() {
				t.Errorf("%s: summary photos gauge = %d, memo holds %d", cfg.Label(), d.SummaryMemoPhotos, warm.summaries.Weight())
			}
			// A street's first describe per ρ builds, every later one hits.
			if wantHits := int64(described - described/len(memoGridK)/len(memoGridLambda)/len(memoGridW)); d.ContextMemoHits != wantHits {
				t.Errorf("%s: warm engine memo hits = %d, want %d of %d describes", cfg.Label(), d.ContextMemoHits, wantHits, described)
			}
			if d.ContextMemoEvictions != 0 || d.ContextMemoPhotos != warm.contexts.Weight() {
				t.Errorf("%s: evictions = %d, photos gauge = %d, memo holds %d", cfg.Label(),
					d.ContextMemoEvictions, d.ContextMemoPhotos, warm.contexts.Weight())
			}
		}
	}
}

// TestDescribeMemoConcurrentEviction runs, under -race, eight goroutines
// describing one street under varying (k, λ, w) — all sharing one
// memoised context — while a ninth walks distinct (ε, ρ) pairs until their
// pools exceed the memo's budget several times over, evicting the shared
// context again and again. The summary memo gets no budget, so every
// describe reaches the context. Every answer must equal the
// single-threaded one, and the memo must end within its budget with the
// gauge agreeing.
func TestDescribeMemoConcurrentEviction(t *testing.T) {
	eng := fixtureEngine(t)
	eng.summaries = engine.NewLRU[summaryKey, Summary](0)
	var grid []SummaryParams
	for _, k := range []int{2, 3, 5} {
		for _, l := range []float64{0.2, 0.5, 0.8} {
			for _, w := range []float64{0.3, 0.7} {
				grid = append(grid, SummaryParams{K: k, Lambda: l, W: w})
			}
		}
	}
	want := make([]Summary, len(grid))
	ref := fixtureEngine(t)
	for i, p := range grid {
		var err error
		if want[i], err = ref.DescribeStreet("High St", p); err != nil {
			t.Fatal(err)
		}
	}
	pool := int64(want[0].CandidateCount)
	budget := int64(minContextMemoPhotos) // the fixture's corpus is far smaller
	walk := int(4 * budget / pool)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				for i := range grid {
					j := (i + g) % len(grid)
					got, err := eng.DescribeStreet("High St", grid[j])
					if !sameSummary(got, err, want[j], nil) {
						t.Errorf("goroutine %d %+v: got %+v, %v; want %+v", g, grid[j], got, err, want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < walk; i++ {
			p := SummaryParams{K: 3, Epsilon: 0.0005 + 1e-9*float64(i), Rho: 0.0001 + 1e-9*float64(i%7)}
			if _, err := eng.DescribeStreet("High St", p); err != nil {
				t.Errorf("walk %d: %v", i, err)
				return
			}
			if held := eng.contexts.Weight(); held > budget {
				t.Errorf("walk %d: memo holds %d photos, budget %d", i, held, budget)
				return
			}
		}
	}()
	wg.Wait()

	d := eng.StatsSnapshot().Diversify
	if d.ContextMemoEvictions == 0 {
		t.Errorf("%d walked pools of %d photos evicted nothing from a %d-photo budget", walk, pool, budget)
	}
	if held := eng.contexts.Weight(); held > budget || d.ContextMemoPhotos != held {
		t.Errorf("memo holds %d photos (budget %d), gauge says %d", held, budget, d.ContextMemoPhotos)
	}
	if d.ContextMemoHits == 0 {
		t.Error("no describe was answered from the memo")
	}
}

// TestDescribeMemoIsPerEngine: the memo belongs to the engine — a second
// engine over the same data starts cold, and a context built for one
// (ε, ρ) is not served for another.
func TestDescribeMemoIsPerEngine(t *testing.T) {
	a, b := fixtureEngine(t), fixtureEngine(t)
	p := SummaryParams{K: 3}
	for i := 0; i < 3; i++ {
		// k varies, so the summary memo answers none of the three.
		if _, err := a.DescribeStreet("High St", SummaryParams{K: 3 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if d := a.StatsSnapshot().Diversify; d.ContextMemoMisses != 1 || d.ContextMemoHits != 2 {
		t.Fatalf("first engine: %d misses, %d hits, want 1 and 2", d.ContextMemoMisses, d.ContextMemoHits)
	}
	if _, err := b.DescribeStreet("High St", p); err != nil {
		t.Fatal(err)
	}
	if d := b.StatsSnapshot().Diversify; d.ContextMemoMisses != 1 || d.ContextMemoHits != 0 {
		t.Fatalf("second engine: %d misses, %d hits, want 1 and 0", d.ContextMemoMisses, d.ContextMemoHits)
	}
	for _, q := range []SummaryParams{{K: 3, Rho: 0.0002}, {K: 3, Epsilon: 0.0006}} {
		if _, err := a.DescribeStreet("High St", q); err != nil {
			t.Fatal(err)
		}
	}
	if d := a.StatsSnapshot().Diversify; d.ContextMemoMisses != 3 || a.contexts.Len() != 3 {
		t.Fatalf("after a new ρ and a new ε: %d misses, %d contexts held, want 3 and 3", d.ContextMemoMisses, a.contexts.Len())
	}
	// A street without photos is answered, not remembered.
	if _, err := a.DescribeStreet("Quiet St", SummaryParams{K: 3, Epsilon: 0.0001}); !errors.Is(err, ErrNoPhotos) {
		t.Fatalf("err = %v, want ErrNoPhotos", err)
	}
	if a.contexts.Len() != 3 {
		t.Fatalf("a photo-less street left %d contexts in the memo, want 3", a.contexts.Len())
	}
}

// TestSummaryMemoAnswerIsOwned: the caller owns the Summary it gets. A
// miss and two hits are each mutated every way a caller can — a field,
// a tag in place, an append to one tag list, a row removed — and the
// next describe still equals an untouched engine's answer.
func TestSummaryMemoAnswerIsOwned(t *testing.T) {
	p := SummaryParams{K: 4}
	want, err := fixtureEngine(t).DescribeStreet("High St", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Photos) < 3 || len(want.Photos[0].Tags) == 0 {
		t.Fatalf("the fixture's answer is too small to mutate: %+v", want)
	}
	eng := fixtureEngine(t)
	for i := 0; i < 3; i++ {
		got, err := eng.DescribeStreet("High St", p)
		if !sameSummary(got, err, want, nil) {
			t.Fatalf("describe %d: got %+v, %v; want %+v", i, got, err, want)
		}
		second := slices.Clone(got.Photos[1].Tags)
		got.Objective = -1
		got.Photos[0].X = -1
		got.Photos[0].Tags[0] = "mutated"
		got.Photos[0].Tags = append(got.Photos[0].Tags, "appended")
		if !reflect.DeepEqual(got.Photos[1].Tags, second) {
			t.Fatalf("describe %d: appending to one photo's tags changed the next photo's to %q", i, got.Photos[1].Tags)
		}
		got.Photos = append(got.Photos[:1], got.Photos[2:]...)
	}
	if d := eng.StatsSnapshot().Diversify; d.SummaryMemoMisses != 1 || d.SummaryMemoHits != 2 {
		t.Fatalf("%d misses, %d hits, want 1 and 2", d.SummaryMemoMisses, d.SummaryMemoHits)
	}
}

// TestSummaryMemoRemembersNoRefusal: a describe that is refused — bad
// parameters, an unknown street, a street without photos, a context that
// ended before admission — leaves the summary memo and its counters as
// they were, asked twice so that a remembered refusal would show as a
// hit.
func TestSummaryMemoRemembersNoRefusal(t *testing.T) {
	eng := fixtureEngine(t)
	nan, inf := math.NaN(), math.Inf(1)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	type refusal struct {
		ctx    context.Context
		street string
		p      SummaryParams
		want   error
	}
	bg := context.Background()
	cases := []refusal{
		{bg, "Ghost Road", SummaryParams{K: 3}, ErrUnknownStreet},
		{bg, "Quiet St", SummaryParams{K: 3, Epsilon: 0.0001}, ErrNoPhotos},
		{cancelled, "High St", SummaryParams{K: 3}, context.Canceled},
	}
	for _, p := range []SummaryParams{
		{K: 0}, {K: -1},
		{K: 3, Lambda: nan}, {K: 3, Lambda: inf}, {K: 3, Lambda: -inf}, {K: 3, Lambda: -0.1}, {K: 3, Lambda: 1.5},
		{K: 3, W: nan}, {K: 3, W: -inf}, {K: 3, W: 2},
		{K: 3, Rho: nan}, {K: 3, Rho: inf}, {K: 3, Rho: -0.0001},
		{K: 3, Epsilon: nan}, {K: 3, Epsilon: inf}, {K: 3, Epsilon: -inf}, {K: 3, Epsilon: -1},
	} {
		cases = append(cases, refusal{bg, "High St", p, ErrBadSummaryParams})
	}
	for _, c := range cases {
		for i := 0; i < 2; i++ {
			if _, err := eng.DescribeStreetCtx(c.ctx, c.street, c.p); !errors.Is(err, c.want) {
				t.Fatalf("%q %+v: err = %v, want %v", c.street, c.p, err, c.want)
			}
		}
	}
	d := eng.StatsSnapshot().Diversify
	if n := eng.summaries.Len(); n != 0 || d.SummaryMemoHits != 0 || d.SummaryMemoMisses != 0 ||
		d.SummaryMemoEvictions != 0 || d.SummaryMemoPhotos != 0 {
		t.Fatalf("refusals reached the summary memo: %d answers held, counters %d/%d/%d/%d", n,
			d.SummaryMemoHits, d.SummaryMemoMisses, d.SummaryMemoEvictions, d.SummaryMemoPhotos)
	}
}

// TestSummaryMemoConcurrentEviction runs, under -race, eight goroutines
// describing one street over eighteen (k, λ, w) whose answers hold 60
// photos between them, on an engine whose summary memo keeps 24: hits,
// misses and evictions interleave on every key. Every answer must equal
// the single-threaded one, the memo must never hold more than its budget,
// and the gauge must agree with it at the end.
func TestSummaryMemoConcurrentEviction(t *testing.T) {
	const budget = 24
	var grid []SummaryParams
	for _, k := range []int{2, 3, 5} {
		for _, l := range []float64{0.2, 0.5, 0.8} {
			for _, w := range []float64{0.3, 0.7} {
				grid = append(grid, SummaryParams{K: k, Lambda: l, W: w})
			}
		}
	}
	want := make([]Summary, len(grid))
	ref := fixtureEngine(t)
	for i, p := range grid {
		var err error
		if want[i], err = ref.DescribeStreet("High St", p); err != nil {
			t.Fatal(err)
		}
	}
	eng := fixtureEngine(t)
	eng.summaries = engine.NewLRU[summaryKey, Summary](budget)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := range grid {
					j := (i*(g+1) + round) % len(grid)
					for rep := 0; rep < 2; rep++ {
						got, err := eng.DescribeStreet("High St", grid[j])
						if !sameSummary(got, err, want[j], nil) {
							t.Errorf("goroutine %d %+v: got %+v, %v; want %+v", g, grid[j], got, err, want[j])
							return
						}
						if held := eng.summaries.Weight(); held > budget {
							t.Errorf("goroutine %d: summary memo holds %d photos, budget %d", g, held, budget)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	d := eng.StatsSnapshot().Diversify
	if d.SummaryMemoHits == 0 || d.SummaryMemoEvictions == 0 {
		t.Errorf("hits = %d, evictions = %d: the memo was not exercised both ways", d.SummaryMemoHits, d.SummaryMemoEvictions)
	}
	if held := eng.summaries.Weight(); held > budget || d.SummaryMemoPhotos != held {
		t.Errorf("summary memo holds %d photos (budget %d), gauge says %d", held, budget, d.SummaryMemoPhotos)
	}
}

// TestWarmDescribeAllocations is the ceiling on what a describe served
// from the context memo allocates: the greedy loop's working arrays, the
// summary it returns and the copy the summary memo keeps — nothing that
// grows with the number of greedy iterations, and none of what building a
// context costs (≈ 280 allocations on a 73-photo pool). λ moves by a hair
// on every describe, so the summary memo answers none of them. A second
// ceiling holds a describe the summary memo answers to the copy it hands
// out.
func TestWarmDescribeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	eng := fixtureEngine(t)
	for _, k := range []int{2, 8} {
		p := SummaryParams{K: k}
		if _, err := eng.DescribeStreet("High St", p); err != nil {
			t.Fatal(err)
		}
		n := 0
		allocs := testing.AllocsPerRun(50, func() {
			n++
			q := p
			q.Lambda += 1e-9 * float64(n)
			if _, err := eng.DescribeStreet("High St", q); err != nil {
				t.Fatal(err)
			}
		})
		// Six working arrays, the gate's release, the summary's rows and
		// its one tag array, then the summary memo's copy (the same two)
		// and its list entry: 12 for either k today. One more per
		// selected photo, or three per greedy iteration — a fresh bounds
		// slice and sort.Slice's closure and swapper — do not fit.
		if ceiling := 13.0; allocs > ceiling {
			t.Errorf("k=%d: a warm describe makes %.0f allocations, ceiling %.0f", k, allocs, ceiling)
		}
		t.Logf("k=%d: %.0f allocations per warm describe", k, allocs)

		hit := testing.AllocsPerRun(50, func() {
			if _, err := eng.DescribeStreet("High St", p); err != nil {
				t.Fatal(err)
			}
		})
		// The copy handed out: its photos and one array of all their tags.
		if ceiling := 2.0; hit > ceiling {
			t.Errorf("k=%d: a describe the summary memo answers makes %.0f allocations, ceiling %.0f", k, hit, ceiling)
		}
		t.Logf("k=%d: %.0f allocations per summary-memo hit", k, hit)
	}
}
