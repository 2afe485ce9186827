package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
)

// bruteBound is the static bound derived without the evaluator: the
// largest SL1 weight the corpus gives any cell (bruteSL1), the largest
// |Cε(ℓ)| brute force finds (bruteSegmentCells), and the shortest segment.
func bruteBound(ix *Index, q Query) (bound float64, capBinds bool) {
	query, _ := ix.pois.Dict().LookupAll(q.Keywords)
	weights, capBinds := bruteSL1(ix, query)
	var top1 float64
	for _, w := range weights {
		top1 = math.Max(top1, w)
	}
	if top1 == 0 || ix.net.NumSegments() == 0 {
		return 0, capBinds
	}
	top2, top3 := 0, math.Inf(1)
	for sid, cells := range bruteSegmentCells(ix, q.Epsilon) {
		top2 = max(top2, len(cells))
		top3 = math.Min(top3, ix.net.Segment(network.SegmentID(sid)).Length())
	}
	return Interest(top1*float64(top2), top3, q.Epsilon), capBinds
}

// TestUnseenBoundMatchesSortedLists: on random scenarios — unit weights
// and random weights, where POIs carrying several query keywords make
// the cell-weight cap bind — the sort-free bound is Float64bits-equal to
// the one the corpus, the reference grid and the network give by brute
// force.
func TestUnseenBoundMatchesSortedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	keywordSets := [][]string{
		{"shop"}, {"school"}, {"zeppelin"},
		{"shop", "food"}, {"food", "shop", "shop"}, {"museum", "zeppelin"},
		{"school", "shop", "museum"},
		{"shop", "food", "museum", "park", "school"},
	}
	var capBound int
	for trial := 0; trial < 20; trial++ {
		for name, ix := range map[string]*Index{"unit": randomScenario(rng), "weighted": weightedScenario(rng)} {
			for _, eps := range []float64{0.05, 0.3, 2} {
				for _, kws := range keywordSets {
					q := Query{Keywords: kws, K: 2, Epsilon: eps}
					want, capped := bruteBound(ix, q)
					if capped {
						capBound++
					}
					got, err := ix.UnseenBound(q)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d %s eps=%g %v: bound %v != brute-force bound %v", trial, name, eps, kws, got, want)
					}
				}
			}
		}
	}
	// The cap must actually bind somewhere for the test to cover it.
	if capBound == 0 {
		t.Fatal("the cell-weight cap never bound; the scenarios no longer cover it")
	}
}

// TestUnseenBoundZeroAllocs pins the first property the sharded tier's
// gain rests on: on a warmed slab-backed index the bound performs no
// heap allocation — not for the resolved query, not for a list, not for
// scratch — for one keyword and for several.
func TestUnseenBoundZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful under -race")
	}
	ix, _ := allocWorld(t)
	for _, kws := range [][]string{
		{"shop"},
		{"shop", "food", "museum", "park", "school"},
	} {
		q := Query{Keywords: kws, K: 5, Epsilon: 0.6}
		ix.Warm(q.Epsilon)
		ub, err := ix.UnseenBound(q) // primes the pooled scratch
		if err != nil {
			t.Fatal(err)
		}
		if ub <= 0 {
			t.Fatalf("%v: bound %v; world too sparse for the gate to mean anything", kws, ub)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := ix.UnseenBound(q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%d-keyword bound allocated %.1f objects/op, want 0", len(kws), allocs)
		}
	}
}

// runOn evaluates one query under strat on a caller-held scratch run,
// the way soiResolved does on a pooled one, and returns its results and
// counters.
func runOn(t *testing.T, r *slabRun, q Query, strat Strategy) ([]StreetResult, Stats) {
	t.Helper()
	query, err := r.ix.resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	r.ctx, r.query, r.k, r.eps, r.strat = context.Background(), query, q.K, q.Epsilon, strat
	r.begin(r.ix.plan(q.Epsilon))
	if err := r.filter(); err != nil {
		t.Fatal(err)
	}
	out, err := r.refine(nil)
	if err != nil {
		t.Fatal(err)
	}
	r.release()
	return out, r.stats
}

// TestScratchEpochWrap drives one scratch run — shared by bound-only and
// full evaluations — across the uint32 epoch wrap, under each schedule.
// Stamps written before the wrap (including in storage a smaller-ε run
// does not cover), and the per-segment state they guard, must not be
// mistaken for current ones when the counter reuses their value: every
// run must return the results and the counters of a fresh evaluation. A
// stale Drain refine bound is still an upper bound, so it shows in the
// counters (refine drains more), not in the results.
func TestScratchEpochWrap(t *testing.T) {
	ix, _ := allocWorld(t)
	wide := Query{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.6}
	narrow := Query{Keywords: []string{"museum", "park"}, K: 5, Epsilon: 0.05}
	several := Query{Keywords: []string{"food", "museum", "shop"}, K: 1, Epsilon: 0.6}
	absent := Query{Keywords: []string{"zeppelin"}, K: 5, Epsilon: 0.05}
	top := func(r *slabRun, q Query) float64 {
		r.query = r.ix.resolveInto(r.queryBuf[:0], q.Keywords)
		return r.topSL1()
	}
	fresh := &slabRun{ix: ix}
	wantTop := top(fresh, several)
	if wantTop <= 0 {
		t.Fatal("no relevant cell for the multi-keyword bound")
	}

	for _, strat := range []Strategy{CostAware, Drain} {
		t.Run(strat.String(), func(t *testing.T) {
			type answer struct {
				rows  []StreetResult
				stats Stats
			}
			want := map[*Query]answer{}
			for _, q := range []*Query{&wide, &narrow, &several, &absent} {
				rows, st, err := ix.SOIWithStrategy(*q, strat)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) == 0 && q != &absent {
					t.Fatal("world too sparse for the wrap test to mean anything")
				}
				st.BuildListsTime, st.FilterTime, st.RefineTime = 0, 0, 0
				want[q] = answer{rows, st}
			}
			r := &slabRun{ix: ix}
			check := func(label string, q *Query) {
				t.Helper()
				rows, st := runOn(t, r, *q, strat)
				requireSameResults(t, label, rows, want[q].rows)
				st.BuildListsTime, st.FilterTime, st.RefineTime = 0, 0, 0
				if st != want[q].stats {
					t.Fatalf("%s: counters %+v, want %+v", label, st, want[q].stats)
				}
			}
			bound := func(label string) {
				t.Helper()
				if got := top(r, several); got != wantTop {
					t.Fatalf("bound %s = %v, want %v", label, got, wantTop)
				}
			}
			// Epochs 1..3 leave stamps 1 to 3 behind. The wide query
			// covers the wide plan's pair range, and under Drain it sees
			// every segment.
			if st := want[&wide].stats; strat == Drain && st.SegmentsSeen != st.TotalSegments {
				t.Fatalf("wide query saw %d of %d segments; it must see all", st.SegmentsSeen, st.TotalSegments)
			}
			check("narrow query", &narrow)
			check("wide query", &wide)
			bound("before the wrap")
			r.epoch = math.MaxUint32 - 1
			// The last epoch before the wrap, on the narrow plan with no
			// relevant cell: the per-pair arrays shrink, so the wide
			// plan's tail holds the old stamps, and no per-segment stamp
			// is rewritten.
			check("keyword the vocabulary lacks at the last epoch", &absent)
			// The bound wraps the counter to 1; the wide run then reuses 2
			// over its own stamps, the several-keyword run 3 over the
			// bound's accumulators.
			bound("across the wrap")
			if r.epoch != 1 {
				t.Fatalf("epoch after the wrap = %d, want 1", r.epoch)
			}
			check("wide query after the wrap", &wide)
			check("several-keyword query after the wrap", &several)
			check("narrow query after the wrap", &narrow)
			bound("after the wrap")
		})
	}
}

// BenchmarkUnseenBound measures the static bound on a slab-backed index
// at 1, 3 and 8 query keywords; -benchmem must show 0 allocs/op.
func BenchmarkUnseenBound(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	base := randomScenario(rng)
	words := []string{"shop", "food", "museum", "park", "school", "cafe", "hotel", "market"}
	pb := poi.NewBuilder(nil)
	for i := 0; i < 20000; i++ {
		var tags []string
		for _, kw := range words {
			if rng.Float64() < 0.2 {
				tags = append(tags, kw)
			}
		}
		pb.Add(geo.Pt(rng.Float64()*10, rng.Float64()*10), tags)
	}
	ix, err := NewIndex(base.Network(), pb.Build(), IndexConfig{CellSize: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 3, 8} {
		q := Query{Keywords: words[:n], K: 10, Epsilon: 0.1}
		b.Run(fmt.Sprintf("%dkw", n), func(b *testing.B) {
			if _, err := ix.UnseenBound(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ub, err := ix.UnseenBound(q)
				if err != nil {
					b.Fatal(err)
				}
				boundSink = ub
			}
		})
	}
}

var boundSink float64
