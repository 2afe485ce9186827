package core_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/oracle"
	"repro/internal/vocab"
)

// matrixIndexes builds an index per oracle matrix world of the seeds, at
// both differential cell sizes, with the world's matrix queries.
func matrixIndexes(t *testing.T, seeds int64) (ixs []*core.Index, queries [][]core.Query) {
	t.Helper()
	for seed := int64(0); seed < seeds; seed++ {
		for _, cfg := range oracle.MatrixConfigs(seed, false) {
			w, err := cfg.BuildWorld()
			if err != nil {
				t.Fatal(err)
			}
			net, pois, _, _, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, cell := range oracle.DefaultCellSizes {
				ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: cell})
				if err != nil {
					t.Fatal(err)
				}
				ixs = append(ixs, ix)
				queries = append(queries, cfg.Queries)
			}
		}
	}
	return ixs, queries
}

// TestInterestMemoMatchesSegmentInterest: on every oracle matrix world,
// for every (Ψ, ε) of its matrix and every segment, the memo returns the
// Float64bits SegmentInterest computes — on the first pass, which folds,
// on a second served from the memo alone, and on a third after a reset,
// which folds again.
func TestInterestMemoMatchesSegmentInterest(t *testing.T) {
	ixs, queries := matrixIndexes(t, 4)
	for i, ix := range ixs {
		n := ix.Network().NumSegments()
		for _, q := range queries[i] {
			set, _ := ix.POIs().Dict().LookupAll(q.Keywords)
			want := make([]float64, n)
			for sid := range want {
				want[sid] = ix.SegmentInterest(network.SegmentID(sid), set, q.Epsilon)
			}
			for pass, wantMisses := range []int{n, 0, n} {
				if pass == 2 {
					ix.ResetInterestMemo()
				}
				memo, err := ix.InterestOf(set, q.Epsilon)
				if err != nil {
					t.Fatal(err)
				}
				for sid := range want {
					if got := memo.Interest(network.SegmentID(sid)); math.Float64bits(got) != math.Float64bits(want[sid]) {
						t.Fatalf("index %d %v ε=%g pass %d segment %d: memo %v, SegmentInterest %v", i, q.Keywords, q.Epsilon, pass, sid, got, want[sid])
					}
				}
				if c := memo.Counts(); c.Misses != wantMisses || c.Hits != n-wantMisses || c.Resets != 0 {
					t.Fatalf("index %d %v ε=%g pass %d: %+v, want %d misses of %d", i, q.Keywords, q.Epsilon, pass, c, wantMisses, n)
				}
			}
		}
	}
}

// TestInterestMemoRefusesBadEpsilon: an ε that is not positive and finite
// opens no table; it would fold to NaN or key a table no request hits.
func TestInterestMemoRefusesBadEpsilon(t *testing.T) {
	ixs, _ := matrixIndexes(t, 1)
	ix := ixs[0]
	set, _ := ix.POIs().Dict().LookupAll([]string{"shop"})
	for _, eps := range []float64{0, -0.0005, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := ix.InterestOf(set, eps); !errors.Is(err, core.ErrBadEpsilon) {
			t.Errorf("ε=%v: err %v, want ErrBadEpsilon", eps, err)
		}
	}
	if got := ix.PlanCount(); got != 0 {
		t.Errorf("%d ε-plans built by refused ε", got)
	}
}

// TestInterestMemoConcurrentFirstTouch: sixteen goroutines share one
// index. Half read the same few (Ψ, ε) over every segment in different
// orders, racing to be the first to fold and store each entry; the other
// half stream distinct keyword sets, so the memo fills and resets under
// the readers. Every value is the reference's, bit for bit. Run under
// -race.
func TestInterestMemoConcurrentFirstTouch(t *testing.T) {
	ixs, queries := matrixIndexes(t, 1)
	ix, qs := ixs[0], queries[0]
	n := ix.Network().NumSegments()
	type key struct {
		set vocab.Set
		eps float64
	}
	var keys []key
	for _, q := range qs {
		set, _ := ix.POIs().Dict().LookupAll(q.Keywords)
		keys = append(keys, key{set, q.Epsilon})
	}
	// The reference is a second index over the same world, so no read of
	// it touches the memo under test.
	ref, err := core.NewIndex(ix.Network(), ix.POIs(), core.IndexConfig{CellSize: ix.Slab().CellSize})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]float64)
	name := func(k key) string { return fmt.Sprint(k.set, math.Float64bits(k.eps)) }
	wantOf := func(k key) []float64 {
		out := make([]float64, n)
		for sid := range out {
			out[sid] = ref.SegmentInterest(network.SegmentID(sid), k.set, k.eps)
		}
		return out
	}
	for _, k := range keys {
		want[name(k)] = wantOf(k)
	}
	vocabSize := ix.POIs().Dict().Len()
	streamed := make([][]key, 8)
	for g := range streamed {
		for i := 0; i < 24; i++ {
			var set vocab.Set
			for id, bits := 0, g*24+i+1; bits > 0 && id < vocabSize; id, bits = id+1, bits>>1 {
				if bits&1 == 1 {
					set = append(set, vocab.ID(id))
				}
			}
			k := key{set, keys[i%len(keys)].eps}
			streamed[g] = append(streamed[g], k)
			want[name(k)] = wantOf(k)
		}
	}
	var resets atomic.Int64
	check := func(k key, order func(int) int) error {
		memo, err := ix.InterestOf(k.set, k.eps)
		if err != nil {
			return err
		}
		w := want[name(k)]
		for i := 0; i < n; i++ {
			sid := order(i)
			if got := memo.Interest(network.SegmentID(sid)); math.Float64bits(got) != math.Float64bits(w[sid]) {
				return fmt.Errorf("%v ε=%g segment %d: %v, want %v", k.set, k.eps, sid, got, w[sid])
			}
		}
		resets.Add(int64(memo.Counts().Resets))
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if g%2 == 1 {
					for _, k := range streamed[g/2] {
						if err := check(k, func(i int) int { return i }); err != nil {
							errs <- err
							return
						}
					}
					continue
				}
				for j := range keys {
					k := keys[(j+g)%len(keys)]
					if err := check(k, func(i int) int { return (i*7 + g) % n }); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if resets.Load() == 0 {
		t.Error("the streams never filled the memo; no reset raced the readers")
	}
}

// TestInterestMemoBoundedUnderDistinctKeys: a stream of distinct (Ψ, ε),
// each reading every segment, would hold many times the cap in an
// unbounded memo. The memo's entries stay at or under the cap after every
// request, it resets instead of growing, and the live heap the stream
// leaves behind is within a pinned allowance per cap entry.
func TestInterestMemoBoundedUnderDistinctKeys(t *testing.T) {
	ixs, queries := matrixIndexes(t, 1)
	ix := ixs[0]
	n := ix.Network().NumSegments()
	limit := ix.InterestLimit()
	var epsilons []float64
	for _, q := range queries[0] {
		if !slices.Contains(epsilons, q.Epsilon) {
			epsilons = append(epsilons, q.Epsilon)
		}
	}
	for _, eps := range epsilons {
		ix.Warm(eps) // ε-plans are another memo's; build them first
	}
	vocabSize := ix.POIs().Dict().Len()
	if vocabSize < 8 {
		t.Fatalf("vocabulary of %d words is too small for the stream", vocabSize)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var requested, resets int
	for bits := 1; bits < 1<<8; bits++ {
		var set vocab.Set
		for id := 0; id < 8; id++ {
			if bits>>id&1 == 1 {
				set = append(set, vocab.ID(id))
			}
		}
		for _, eps := range epsilons {
			memo, err := ix.InterestOf(set, eps)
			if err != nil {
				t.Fatal(err)
			}
			// Even requests read every segment; odd ones read one, so
			// tables, not entries, fill the memo.
			reads := n
			if bits%2 == 1 {
				reads = 1
			}
			for sid := 0; sid < reads; sid++ {
				memo.Interest(network.SegmentID(sid))
			}
			c := memo.Counts()
			if c.Entries > limit {
				t.Fatalf("%v ε=%g: %d entries held, cap %d", set, eps, c.Entries, limit)
			}
			requested += reads
			resets += c.Resets
		}
	}
	grown := int64(heap()) - int64(before)
	t.Logf("%d segments, cap %d entries, %d interests requested, %d resets, live heap grew %d B", n, limit, requested, resets, grown)
	if requested < 20*limit || resets == 0 {
		t.Fatalf("stream requested %d interests against a cap of %d with %d resets; too small to test the bound", requested, limit, resets)
	}
	// A generation's slot table is 16 B per slot, with between two and
	// four slots per cap entry: at most 64 B per entry. The registry of
	// (Ψ, ε) adds a key and a map slot per table, which charges at least
	// interestTableEntries. The stream left 44 B per cap entry on
	// linux/amd64 with Go 1.24; an unbounded memo would have grown by
	// megabytes.
	const interestBytesPerEntry, slack = 96, 32 << 10
	if bound := int64(limit)*interestBytesPerEntry + slack; grown > bound {
		t.Fatalf("live heap grew %d B over the stream, bound %d B (%d entries × %d B + %d B)", grown, bound, limit, interestBytesPerEntry, slack)
	}
	runtime.KeepAlive(ix)
}

// TestInterestMemoHitAllocations: once a (Ψ, ε) is memoized, a request
// allocates its reader and nothing per segment.
func TestInterestMemoHitAllocations(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful under -race")
	}
	ixs, queries := matrixIndexes(t, 1)
	ix, q := ixs[0], queries[0][2]
	set, _ := ix.POIs().Dict().LookupAll(q.Keywords)
	n := ix.Network().NumSegments()
	read := func() {
		memo, err := ix.InterestOf(set, q.Epsilon)
		if err != nil {
			t.Fatal(err)
		}
		for sid := 0; sid < n; sid++ {
			memo.Interest(network.SegmentID(sid))
		}
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs > 1 {
		t.Fatalf("a memoized request over %d segments allocated %.1f objects, want ≤ 1", n, allocs)
	}
}
