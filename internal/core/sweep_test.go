package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
)

// The serving sweep of the k-SOI benchmark workloads: every non-empty
// subset of the world's keywords (its categories plus the planted "shop")
// × k × ε, by ascending subset mask, then k, then ε.
var (
	sweepK   = []int{1, 3, 5, 10, 20, 30, 50, 100}
	sweepEps = []float64{0.00025, 0.0005, 0.001}
)

func sweepQueries(p datagen.Profile) []Query {
	cats := make([]string, 0, len(p.Categories)+1)
	for _, c := range p.Categories {
		cats = append(cats, c.Name)
	}
	cats = append(cats, "shop")
	var out []Query
	for mask := 1; mask < 1<<len(cats); mask++ {
		var kws []string
		for b, c := range cats {
			if mask&(1<<b) != 0 {
				kws = append(kws, c)
			}
		}
		for _, k := range sweepK {
			for _, eps := range sweepEps {
				out = append(out, Query{Keywords: kws, K: k, Epsilon: eps})
			}
		}
	}
	return out
}

// sweepWorld generates a Berlin-profile city at the given scale and
// indexes it the way a serving process does.
func sweepWorld(tb testing.TB, scale float64) (*Index, []Query) {
	tb.Helper()
	p := datagen.Scale(datagen.Berlin(), scale)
	ds, err := datagen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := NewIndex(ds.Network, ds.POIs, IndexConfig{CellSize: 0.0005})
	if err != nil {
		tb.Fatal(err)
	}
	return ix, sweepQueries(p)
}

// goldenSweepStride samples every 11th query of the 6,120-query sweep, so
// the three schedules together stay within a few seconds; 11 is coprime
// to the 24 (k, ε) pairs, so every pair meets many keyword subsets.
const goldenSweepStride = 11

// TestGoldenSweep pins the answers and the refine work of a strided slice
// of the serving sweep on Berlin 0.1, under each schedule: one FNV-64a
// over every returned row (street, best segment and the bits of its
// interest and mass, with each answer's row count), which must be the
// same for all three schedules, plus the summed RefineDrained and
// SegmentsFinal counters of each. A change to how refine ranks or
// selects must pass with the literals as they are.
func TestGoldenSweep(t *testing.T) {
	if raceEnabled {
		t.Skip("a single-goroutine golden; -race only slows it past its budget")
	}
	ix, queries := sweepWorld(t, 0.1)
	const wantHash uint64 = 0x537abb2a6bf8048a
	want := map[Strategy][2]int{
		Drain:      {115477, 115477},
		CostAware:  {35774, 41467},
		RoundRobin: {3878, 1665744},
	}
	for _, strat := range []Strategy{Drain, CostAware, RoundRobin} {
		h := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		var drained, final int
		for i := 0; i < len(queries); i += goldenSweepStride {
			rs, st, err := ix.SOIWithStrategy(queries[i], strat)
			if err != nil {
				t.Fatalf("%v, query %d: %v", strat, i, err)
			}
			put(uint64(len(rs)))
			for _, r := range rs {
				put(uint64(r.Street))
				put(uint64(r.BestSegment))
				put(math.Float64bits(r.Interest))
				put(math.Float64bits(r.Mass))
			}
			drained += st.RefineDrained
			final += st.SegmentsFinal
		}
		if got := h.Sum64(); got != wantHash {
			t.Errorf("%v: answers hash %#x, want %#x", strat, got, wantHash)
		}
		if got := [2]int{drained, final}; got != want[strat] {
			t.Errorf("%v: Σ(RefineDrained, SegmentsFinal) = %v, want %v", strat, got, want[strat])
		}
	}
}

// BenchmarkSOISweep is the serving sweep as the ksoi_cold workload sends
// it to a fixed index: Berlin 0.25, the 6,120 queries in a seeded order,
// Drain, no mass cache, every ε-plan warm. Beside the time and B/op it
// reports what refine works through per query: the segments the marking
// pass saw and the ones refine drained.
func BenchmarkSOISweep(b *testing.B) {
	ix, queries := sweepWorld(b, 0.25)
	for _, eps := range sweepEps {
		ix.Warm(eps)
	}
	order := rand.New(rand.NewSource(1)).Perm(len(queries))
	// The sweep's widest query (every keyword, k = 100, the largest ε)
	// sizes the pooled scratch, so even a single measured iteration
	// reports a serving query's B/op.
	if _, _, err := ix.SOIWithStrategy(queries[len(queries)-1], Drain); err != nil {
		b.Fatal(err)
	}
	var seen, drained int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := ix.SOIWithStrategy(queries[order[i%len(order)]], Drain)
		if err != nil {
			b.Fatal(err)
		}
		seen += st.SegmentsSeen
		drained += st.RefineDrained
	}
	b.ReportMetric(float64(seen)/float64(b.N), "seen/op")
	b.ReportMetric(float64(drained)/float64(b.N), "drained/op")
}
