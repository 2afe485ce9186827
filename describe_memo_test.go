package soi

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

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
// the street returns. The fresh side is a new engine per grid point, so
// every one of its describes is a first touch; the counters check that
// each side really took the path it stands for.
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
					if gotErr == nil {
						described++
					}
					if !sameSummary(got, gotErr, want, wantErr) {
						t.Fatalf("%s street %q %+v:\n warm %+v, %v\nfresh %+v, %v",
							cfg.Label(), st.Name, p, got, gotErr, want, wantErr)
					}
				}
				if d := fresh.StatsSnapshot().Diversify; d.ContextMemoHits != 0 {
					t.Fatalf("%s: the fresh engine answered %d describes from its memo", cfg.Label(), d.ContextMemoHits)
				}
			})
			d := warm.StatsSnapshot().Diversify
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
// context again and again. Every answer must equal the single-threaded
// one, and the memo must end within its budget with the gauge agreeing.
func TestDescribeMemoConcurrentEviction(t *testing.T) {
	eng := fixtureEngine(t)
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
		if _, err := a.DescribeStreet("High St", p); err != nil {
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

// TestWarmDescribeAllocations is the ceiling on what a describe served
// from the memo allocates: the greedy loop's working arrays and the
// summary it returns — nothing that grows with the number of greedy
// iterations, and none of what building a context costs (≈ 280
// allocations on a 73-photo pool).
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
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := eng.DescribeStreet("High St", p); err != nil {
				t.Fatal(err)
			}
		})
		// Six working arrays, the gate's release, the summary's photo slice
		// as it doubles and one tag-name slice per selected photo: 9 + k
		// and 11 + k today. Three more per greedy iteration — a fresh
		// bounds slice and sort.Slice's closure and swapper, 16 and 40
		// in all — do not fit.
		if ceiling := float64(12 + k); allocs > ceiling {
			t.Errorf("k=%d: a warm describe makes %.0f allocations, ceiling %.0f", k, allocs, ceiling)
		}
		t.Logf("k=%d: %.0f allocations per warm describe", k, allocs)
	}
}
