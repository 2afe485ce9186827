package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/grid"
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
	for sid, cells := range memoSegmentCells(ix, q.Epsilon) {
		top2 = max(top2, len(cells))
		top3 = math.Min(top3, ix.net.Segment(network.SegmentID(sid)).Length())
	}
	return Interest(top1*float64(top2), top3, q.Epsilon), capBinds
}

// lastSegmentCells holds the bruteSegmentCells of the last (index, ε)
// bruteBound asked for: the reference depends on neither Ψ nor k, and the
// bound tests ask for it once per keyword set of each (index, ε) in turn.
var lastSegmentCells struct {
	sync.Mutex
	ix    *Index
	eps   float64
	cells [][]grid.CellID
}

// memoSegmentCells is bruteSegmentCells(ix, eps), computed once for a run
// of calls with the same index and ε. Callers must not modify the result.
func memoSegmentCells(ix *Index, eps float64) [][]grid.CellID {
	m := &lastSegmentCells
	m.Lock()
	defer m.Unlock()
	if m.ix != ix || m.eps != eps {
		m.ix, m.eps, m.cells = ix, eps, bruteSegmentCells(ix, eps)
	}
	return m.cells
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
			// relevant cell: CostAware's per-pair arrays shrink, so the
			// wide plan's tail holds the old stamps, and no per-segment
			// stamp is rewritten.
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

// TestPooledRunAlternatesSchedules: one index, evaluated from one
// goroutine, alternates CostAware → Drain → CostAware while ε grows and
// shrinks, so each schedule starts on scratch the other left behind: a
// Drain run sizes no per-(segment, cell) array, and the CostAware run
// after it reuses or grows arrays last sized at another ε, with stamps
// from epochs before the Drain run. Each answer and its full Stats equal
// a fresh index's, through the process-wide pool and on one caller-held
// run.
func TestPooledRunAlternatesSchedules(t *testing.T) {
	ix, _ := allocWorld(t)
	walk := []float64{0.05, 0.3, 2, 0.6, 0.05, 2, 0.3}
	keywordSets := [][]string{{"shop"}, {"shop", "food"}, {"food", "museum", "shop"}, {"zeppelin"}}
	held := &slabRun{ix: ix}
	var answered int
	for step := 0; step < len(walk)*len(keywordSets); step++ {
		strat := []Strategy{CostAware, Drain}[step%2]
		q := Query{Keywords: keywordSets[step%len(keywordSets)], K: 5, Epsilon: walk[step%len(walk)]}
		fresh, err := NewIndexFromSlab(ix.Network(), ix.POIs(), ix.Slab())
		if err != nil {
			t.Fatal(err)
		}
		want, ws, err := fresh.SOIWithStrategy(q, strat)
		if err != nil {
			t.Fatal(err)
		}
		pooled, ps, err := ix.SOIWithStrategy(q, strat)
		if err != nil {
			t.Fatal(err)
		}
		rows, hs := runOn(t, held, q, strat)
		label := fmt.Sprintf("step %d %v %v ε=%g", step, strat, q.Keywords, q.Epsilon)
		requireSameResults(t, label+" pooled", pooled, want)
		requireSameResults(t, label+" held", rows, want)
		for _, st := range []*Stats{&ws, &ps, &hs} {
			st.BuildListsTime, st.FilterTime, st.RefineTime = 0, 0, 0
		}
		if ps != ws || hs != ws {
			t.Fatalf("%s: counters pooled %+v, held %+v, want %+v", label, ps, hs, ws)
		}
		if len(want) > 0 {
			answered++
		}
	}
	if answered == 0 {
		t.Fatal("no step returned a street; the world no longer exercises the schedules")
	}
}

// TestOneRunServesIndexesOfDifferentSizes: the scratch pool is shared by
// every index of the process (live epochs, tenants, shards), so one run
// serves a larger world, a smaller one and the larger again. The smaller
// world's arenas are prefixes of storage the larger one stamped, and the
// epoch wraps on the first run after a smaller world, so the zeroing has
// to reach past the lengths the last run used. Under both schedules every
// answer and its counters, and the static bound's SL1 head, equal those
// of a fresh run on a fresh index.
func TestOneRunServesIndexesOfDifferentSizes(t *testing.T) {
	large, _ := allocWorld(t)
	rng := rand.New(rand.NewSource(61))
	var small *Index
	for small == nil {
		ix := randomScenario(rng)
		if ix.POIs().Len() >= 20 && ix.Network().NumSegments() < large.Network().NumSegments() &&
			ix.Slab().NumCells() < large.Slab().NumCells() && ix.Network().NumStreets() < large.Network().NumStreets() {
			small = ix
		}
	}
	queries := []Query{
		{Keywords: []string{"shop"}, K: 3, Epsilon: 0.6},
		{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.3},
		{Keywords: []string{"food", "museum", "park"}, K: 2, Epsilon: 2},
		{Keywords: []string{"zeppelin"}, K: 5, Epsilon: 0.05},
	}
	top := func(r *slabRun, q Query) float64 {
		r.query = r.ix.resolveInto(r.queryBuf[:0], q.Keywords)
		return r.topSL1()
	}
	held := &slabRun{}
	var answered int
	for step, ix := range []*Index{large, small, large, small, large} {
		fresh, err := NewIndexFromSlab(ix.Network(), ix.POIs(), ix.Slab())
		if err != nil {
			t.Fatal(err)
		}
		if step == 2 {
			held.epoch = math.MaxUint32
		}
		held.ix = ix
		for i, q := range queries {
			for _, strat := range []Strategy{CostAware, Drain} {
				label := fmt.Sprintf("step %d %v %v ε=%g", step, strat, q.Keywords, q.Epsilon)
				want, ws := runOn(t, &slabRun{ix: fresh}, q, strat)
				rows, hs := runOn(t, held, q, strat)
				if step == 2 && i == 0 && strat == CostAware && held.epoch != 1 {
					t.Fatalf("%s: epoch %d, want 1 after the wrap", label, held.epoch)
				}
				requireSameResults(t, label, rows, want)
				hs.BuildListsTime, hs.FilterTime, hs.RefineTime = 0, 0, 0
				ws.BuildListsTime, ws.FilterTime, ws.RefineTime = 0, 0, 0
				if hs != ws {
					t.Fatalf("%s: counters %+v, want %+v", label, hs, ws)
				}
				if len(want) > 0 {
					answered++
				}
			}
			if got, want := top(held, q), top(&slabRun{ix: fresh}, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d %v: bound head %v, want %v", step, q.Keywords, got, want)
			}
		}
	}
	if answered == 0 {
		t.Fatal("no query returned a street; the worlds no longer exercise the run")
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
