package core

import (
	"context"
	"math/rand"
	"testing"
)

// allocWorld builds a deterministic mid-size scenario plus a query whose
// evaluation touches filter, refine and drain paths.
func allocWorld(tb testing.TB) (*Index, Query) {
	tb.Helper()
	rng := rand.New(rand.NewSource(4242))
	var ix *Index
	for {
		ix = randomScenario(rng)
		if ix.POIs().Len() >= 120 && ix.Network().NumSegments() >= 20 {
			break
		}
	}
	return ix, Query{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.6}
}

// TestSlabQueryZeroAllocs pins the steady-state allocation budget of the
// slab hot path at exactly zero: after the ε-plan is memoized and the
// pooled run has grown its arenas, a resolved query must not allocate.
// If this test starts failing, some scratch structure stopped being
// reused — treat it as a performance regression, not flakiness.
func TestSlabQueryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful under -race")
	}
	ix, q := allocWorld(t)
	ix.Warm(q.Epsilon)
	resolved, err := ix.resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	out := make([]StreetResult, 0, q.K)
	for _, strat := range []Strategy{CostAware, Drain} {
		// Prime the pool so arena growth happens outside the measured runs.
		for i := 0; i < 3; i++ {
			if out, _, err = ix.soiResolved(ctx, resolved, q.K, q.Epsilon, strat, nil, out[:0]); err != nil {
				t.Fatal(err)
			}
		}
		if len(out) == 0 {
			t.Fatal("query returned no results; world too sparse for the gate to mean anything")
		}
		allocs := testing.AllocsPerRun(200, func() {
			out, _, err = ix.soiResolved(ctx, resolved, q.K, q.Epsilon, strat, nil, out[:0])
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: slab query allocated %.1f objects/op, want 0", strat, allocs)
		}
	}
}

// BenchmarkSOISlab measures the steady-state query; -benchmem must show
// 0 allocs/op.
func BenchmarkSOISlab(b *testing.B) {
	ix, q := allocWorld(b)
	ix.Warm(q.Epsilon)
	resolved, err := ix.resolve(q)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	out := make([]StreetResult, 0, q.K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, _, err = ix.soiResolved(ctx, resolved, q.K, q.Epsilon, CostAware, nil, out[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
