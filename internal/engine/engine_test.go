package engine

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
)

// buildIndex creates a deterministic scenario with a handful of streets
// and enough POIs that queries do real work.
func buildIndex(t testing.TB) *core.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	nb := network.NewBuilder()
	for s := 0; s < 12; s++ {
		y := float64(s) * 0.7
		nb.AddStreet("street", []geo.Point{geo.Pt(0, y), geo.Pt(3, y+rng.Float64()*0.2)})
	}
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	kws := []string{"shop", "food", "museum", "park"}
	pb := poi.NewBuilder(nil)
	for i := 0; i < 400; i++ {
		var tags []string
		for _, kw := range kws {
			if rng.Float64() < 0.4 {
				tags = append(tags, kw)
			}
		}
		pb.Add(geo.Pt(rng.Float64()*3, rng.Float64()*8), tags)
	}
	ix, err := core.NewIndex(net, pb.Build(), core.IndexConfig{CellSize: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// sameResults requires identical street/interest sequences.
func sameResults(t *testing.T, got, want []core.StreetResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Street != want[i].Street || math.Abs(got[i].Interest-want[i].Interest) > 1e-12 {
			t.Fatalf("rank %d: got (%d, %v), want (%d, %v)",
				i, got[i].Street, got[i].Interest, want[i].Street, want[i].Interest)
		}
	}
}

func testQueries() []core.Query {
	return []core.Query{
		{Keywords: []string{"shop"}, K: 3, Epsilon: 0.2},
		{Keywords: []string{"food", "museum"}, K: 5, Epsilon: 0.15},
		{Keywords: []string{"park"}, K: 2, Epsilon: 0.3},
		{Keywords: []string{"shop", "food", "park"}, K: 8, Epsilon: 0.25},
		{Keywords: []string{"museum"}, K: 1, Epsilon: 0.1},
	}
}

func TestDoMatchesSOI(t *testing.T) {
	ix := buildIndex(t)
	e := New(ix, Config{})
	for _, q := range testQueries() {
		want, _, err := ix.SOI(q)
		if err != nil {
			t.Fatal(err)
		}
		res := e.Do(q)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sameResults(t, res.Streets, want)
	}
}

// TestExecutorSchedule: the schedule follows from what an executor
// serves, and the recorder names it. Over a fixed index it is Drain, with
// no filter iteration; over an epoch source it is the paper's filter.
// Either way the answer is Float64bits-identical to
// Index.SOIWithStrategy under CostAware, every (Ψ, ε) at two k.
func TestExecutorSchedule(t *testing.T) {
	ix := buildIndex(t)
	src := &fakeSource{}
	src.swap(1, ix)
	for _, c := range []struct {
		schedule string
		exec     *Executor
	}{
		{"drain", New(ix, Config{})},
		{"cost-aware", New(nil, Config{Source: src})},
	} {
		t.Run(c.schedule, func(t *testing.T) {
			if got := c.exec.Recorder().Snapshot().Engine.Schedule; got != c.schedule {
				t.Fatalf("recorded schedule %q, want %q", got, c.schedule)
			}
			live := c.exec.source != nil
			for _, q := range testQueries() {
				for _, k := range []int{q.K, q.K + 3} {
					q := q
					q.K = k
					want, _, err := ix.SOIWithStrategy(q, core.CostAware)
					if err != nil {
						t.Fatal(err)
					}
					res := c.exec.Do(q)
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					bitSameResults(t, res.Streets, want)
					st := res.Stats
					if live && st.FilterIterations == 0 {
						t.Fatalf("%v: no filter iteration on the live path", q)
					}
					if !live && st.FilterIterations != 0 {
						t.Fatalf("%v: %d filter iterations; want a Drain evaluation", q, st.FilterIterations)
					}
				}
			}
		})
	}
}

// bitSameResults requires identical rows, floats compared by their bits.
func bitSameResults(t *testing.T, got, want []core.StreetResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Street != w.Street || g.BestSegment != w.BestSegment ||
			math.Float64bits(g.Interest) != math.Float64bits(w.Interest) || math.Float64bits(g.Mass) != math.Float64bits(w.Mass) {
			t.Fatalf("rank %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestCachedResultKeepsRowsNotArray: refine selects the k best of the
// streets it touched before it builds any row, so an evaluation's answer
// — and what the result cache keeps for up to CacheSize queries — holds
// at most k rows' worth of storage, not a ranking of every street.
func TestCachedResultKeepsRowsNotArray(t *testing.T) {
	ix := buildIndex(t)
	q := core.Query{Keywords: []string{"shop", "food", "park"}, K: 3, Epsilon: 0.25}
	wide := q
	wide.K = 50
	all, _, err := ix.SOI(wide)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= q.K {
		t.Fatalf("only %d streets are interesting; the test needs more than k=%d", len(all), q.K)
	}
	raw, _, err := ix.SOI(q)
	if err != nil {
		t.Fatal(err)
	}
	if cap(raw) > q.K {
		t.Fatalf("evaluation returned %d rows in capacity %d, more than k=%d", len(raw), cap(raw), q.K)
	}
	e := New(ix, Config{})
	for i, want := range []bool{false, true} {
		res := e.Do(q)
		if res.Err != nil || res.Cached != want {
			t.Fatalf("Do %d: cached %v, err %v; want cached %v", i, res.Cached, res.Err, want)
		}
		if cap(res.Streets) > q.K {
			t.Fatalf("Do %d: result has capacity %d, more than k=%d", i, cap(res.Streets), q.K)
		}
		sameResults(t, res.Streets, raw)
	}
}

func TestCacheHitAndMetrics(t *testing.T) {
	ix := buildIndex(t)
	e := New(ix, Config{})
	q := testQueries()[0]
	first := e.Do(q)
	if first.Cached {
		t.Fatal("first evaluation reported cached")
	}
	second := e.Do(q)
	if !second.Cached {
		t.Fatal("second evaluation not served from cache")
	}
	sameResults(t, second.Streets, first.Streets)
	m := e.Recorder().Snapshot().Engine
	if m.Queries != 2 || m.ResultCacheHits != 1 || m.Evaluations != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	ix := buildIndex(t)
	e := New(ix, Config{})
	e.Do(core.Query{Keywords: []string{"shop", "food"}, K: 3, Epsilon: 0.2})
	res := e.Do(core.Query{Keywords: []string{" FOOD ", "Shop", "food"}, K: 3, Epsilon: 0.2})
	if !res.Cached {
		t.Fatal("normalized-equal query missed the cache")
	}
}

func TestLRUEviction(t *testing.T) {
	ix := buildIndex(t)
	e := New(ix, Config{CacheSize: 2})
	qs := testQueries()
	e.Do(qs[0])
	e.Do(qs[1])
	e.Do(qs[2]) // evicts qs[0]
	if e.cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", e.cache.Len())
	}
	if res := e.Do(qs[0]); res.Cached {
		t.Fatal("evicted entry served from cache")
	}
	// qs[2] was most recently used before the qs[0] re-evaluation and
	// must have survived.
	if res := e.Do(qs[2]); !res.Cached {
		t.Fatal("recently used entry was evicted")
	}
}

func TestCacheDisabled(t *testing.T) {
	ix := buildIndex(t)
	e := New(ix, Config{CacheSize: -1})
	q := testQueries()[0]
	e.Do(q)
	if res := e.Do(q); res.Cached {
		t.Fatal("cache disabled but result served from cache")
	}
	if m := e.Recorder().Snapshot().Engine; m.Evaluations != 2 {
		t.Fatalf("evaluations = %d, want 2", m.Evaluations)
	}
}

func TestInvalidate(t *testing.T) {
	ix := buildIndex(t)
	e := New(ix, Config{})
	q := testQueries()[0]
	e.Do(q)
	e.Invalidate()
	if res := e.Do(q); res.Cached {
		t.Fatal("cache not invalidated")
	}
}

func TestInvalidQuery(t *testing.T) {
	ix := buildIndex(t)
	e := New(ix, Config{})
	res := e.Do(core.Query{})
	if res.Err == nil {
		t.Fatal("expected validation error")
	}
	if res.Cached {
		t.Fatal("error result reported cached")
	}
}

func TestBatchOrderAndEquivalence(t *testing.T) {
	ix := buildIndex(t)
	// Cache disabled so every batch entry actually evaluates.
	e := New(ix, Config{Workers: 4, CacheSize: -1})
	qs := testQueries()
	// Repeat the workload so the batch exceeds the worker count.
	var batch []core.Query
	for i := 0; i < 8; i++ {
		batch = append(batch, qs...)
	}
	results := e.Batch(batch)
	if len(results) != len(batch) {
		t.Fatalf("got %d results, want %d", len(results), len(batch))
	}
	for i, q := range batch {
		want, _, err := ix.SOI(q)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
		sameResults(t, results[i].Streets, want)
	}
}

func TestBatchEmpty(t *testing.T) {
	e := New(buildIndex(t), Config{})
	if res := e.Batch(nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}

// TestConcurrentMixedQueries is the shared-index concurrency test: many
// goroutines issue a mix of queries against one executor and every
// result must equal the sequential answer. Run under -race this also
// proves the index read paths are race-free.
func TestConcurrentMixedQueries(t *testing.T) {
	ix := buildIndex(t)
	qs := testQueries()
	want := make([][]core.StreetResult, len(qs))
	for i, q := range qs {
		res, _, err := ix.SOI(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	e := New(ix, Config{Workers: 8})
	const goroutines = 16
	const perG = 30
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				j := rng.Intn(len(qs))
				res := e.Do(qs[j])
				if res.Err != nil {
					errs <- res.Err.Error()
					return
				}
				if len(res.Streets) != len(want[j]) {
					errs <- "result length mismatch"
					return
				}
				for r := range res.Streets {
					if res.Streets[r].Street != want[j][r].Street ||
						res.Streets[r].Interest != want[j][r].Interest {
						errs <- "result mismatch vs sequential"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	m := e.Recorder().Snapshot().Engine
	if m.Queries != goroutines*perG {
		t.Fatalf("queries = %d, want %d", m.Queries, goroutines*perG)
	}
	if m.Evaluations+m.ResultCacheHits+m.DedupJoins != m.Queries {
		t.Fatalf("counters do not add up: %+v", m)
	}
}

// TestConcurrentIdenticalQueries exercises the in-flight deduplication
// path: identical queries racing with caching disabled must all succeed
// and agree.
func TestConcurrentIdenticalQueries(t *testing.T) {
	ix := buildIndex(t)
	e := New(ix, Config{Workers: 8, CacheSize: -1})
	q := testQueries()[3]
	want, _, err := ix.SOI(q)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	results := make([]Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = e.Do(q)
		}(g)
	}
	wg.Wait()
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sameResults(t, res.Streets, want)
	}
	m := e.Recorder().Snapshot().Engine
	if m.Evaluations+m.DedupJoins != goroutines {
		t.Fatalf("counters do not add up: %+v", m)
	}
}
