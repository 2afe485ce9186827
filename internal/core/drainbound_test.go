package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// drainWorlds is the oracle matrix worlds with, for each, its matrix
// queries plus one keyword, two keywords, the whole vocabulary and a
// keyword the vocabulary lacks (alone and beside a known one) at the
// matrix's smallest and largest ε; and, so that summation order shows in
// the bits, each matrix network again under irregular POI weights on a
// fine grid, where a segment sums many relevant cells. The ε run from
// under half a cell to six cells.
func drainWorlds(t *testing.T) ([]*core.Index, [][]core.Query) {
	t.Helper()
	ixs, queries := matrixIndexes(t, 4)
	rng := rand.New(rand.NewSource(5))
	for i, n := 0, len(ixs); i < n; i += 2 {
		ix := ixs[i]
		pb := poi.NewBuilder(nil)
		for _, p := range ix.POIs().All() {
			pb.AddWeighted(p.Loc, ix.POIs().Dict().Names(p.Keywords), 0.1+3*rng.Float64())
		}
		fine, err := core.NewIndex(ix.Network(), pb.Build(), core.IndexConfig{CellSize: 0.0002})
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, fine)
		queries = append(queries, queries[i])
	}
	for i, ix := range ixs {
		dict := ix.POIs().Dict()
		all := make([]string, dict.Len())
		for id := range all {
			all[id] = dict.Name(vocab.ID(id))
		}
		if len(all) < 2 {
			t.Fatalf("index %d: vocabulary of %d keywords", i, len(all))
		}
		qs := append([]core.Query(nil), queries[i]...)
		for _, eps := range []float64{queries[i][0].Epsilon, queries[i][len(queries[i])-1].Epsilon} {
			for _, kws := range [][]string{all[:1], all[:2], all, {"no-such-keyword"}, {all[0], "no-such-keyword"}} {
				qs = append(qs, core.Query{Keywords: kws, K: 3, Epsilon: eps})
			}
		}
		queries[i] = qs
	}
	return ixs, queries
}

// TestDrainBoundMatchesRefineLoop: for each query of drainWorlds, the
// refine bound Drain's marking pass sums per segment has the Float64bits
// of the sum refine's loop over Cε(ℓ) computed, on every segment the pass
// saw.
func TestDrainBoundMatchesRefineLoop(t *testing.T) {
	ixs, queries := drainWorlds(t)
	var compared, orderShows int
	for i, ix := range ixs {
		for _, q := range queries[i] {
			fused, loop, bySL1, err := ix.DrainBounds(q)
			if err != nil {
				t.Fatal(err)
			}
			for j := range fused {
				if math.Float64bits(fused[j]) != math.Float64bits(loop[j]) {
					t.Fatalf("index %d %v ε=%g, seen segment %d: marking pass bound %v, refine loop %v",
						i, q.Keywords, q.Epsilon, j, fused[j], loop[j])
				}
				if math.Float64bits(bySL1[j]) != math.Float64bits(loop[j]) {
					orderShows++
				}
			}
			compared += len(fused)
		}
	}
	// Summing the same weights in SL1's order must change some bound's
	// bits, or the worlds could not tell a pass in the wrong order apart.
	if compared == 0 || orderShows == 0 {
		t.Fatalf("%d bounds compared, %d differ in SL1 order; the worlds no longer cover the summation order", compared, orderShows)
	}
	t.Logf("%d bounds compared; %d of them differ when summed in SL1 order", compared, orderShows)
}

// TestDrainMassesMatchSegmentMass: every segment a Drain evaluation
// drains leaves refine with the Float64bits of Index.SegmentMass, which
// folds every cell of Cε(ℓ), relevant or not. The worlds are drainWorlds
// and Berlin 0.1 under a strided slice of the serving sweep plus a
// keyword the vocabulary lacks, so the cells the drain skips for holding
// no query keyword are exercised from one keyword to the whole
// vocabulary and from sub-cell to multi-cell ε.
func TestDrainMassesMatchSegmentMass(t *testing.T) {
	ixs, queries := drainWorlds(t)
	berlin, sweep := core.SweepWorld(t, 0.1)
	var bq []core.Query
	for i := 0; i < len(sweep); i += 97 {
		bq = append(bq, sweep[i])
	}
	bq = append(bq,
		core.Query{Keywords: []string{"shop", "no-such-keyword"}, K: 10, Epsilon: 0.001},
		core.Query{Keywords: []string{"no-such-keyword"}, K: 10, Epsilon: 0.001})
	ixs, queries = append(ixs, berlin), append(queries, bq)
	var compared, positive int
	for i, ix := range ixs {
		for _, q := range queries[i] {
			sids, masses, err := ix.DrainedMasses(q)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := ix.SOIWithStrategy(q, core.Drain)
			if err != nil {
				t.Fatal(err)
			}
			if len(sids) != st.RefineDrained {
				t.Fatalf("index %d %v ε=%g: %d segments drained, the evaluation reports %d",
					i, q.Keywords, q.Epsilon, len(sids), st.RefineDrained)
			}
			set, _ := ix.POIs().Dict().LookupAll(q.Keywords)
			for j, sid := range sids {
				want := ix.SegmentMass(sid, set, q.Epsilon)
				if math.Float64bits(masses[j]) != math.Float64bits(want) {
					t.Fatalf("index %d %v ε=%g, segment %d: drained mass %v (%#x), SegmentMass %v (%#x)",
						i, q.Keywords, q.Epsilon, sid, masses[j], math.Float64bits(masses[j]), want, math.Float64bits(want))
				}
				if want > 0 {
					positive++
				}
			}
			compared += len(sids)
		}
	}
	if positive*2 < compared {
		t.Fatalf("only %d of %d drained masses were positive; the worlds no longer exercise the fold", positive, compared)
	}
	t.Logf("%d drained masses compared, %d positive", compared, positive)
}
