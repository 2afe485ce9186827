package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// TestDrainBoundMatchesRefineLoop: for each matrix query and for one
// keyword, two keywords, the whole vocabulary and a keyword the
// vocabulary lacks, the refine bound Drain's marking pass sums per
// segment has the Float64bits of the sum refine's loop over Cε(ℓ)
// computed, on every segment the pass saw. The worlds are the oracle
// matrix worlds and, so that summation order shows in the bits, each
// matrix network again under irregular POI weights on a fine grid, where
// a segment sums many relevant cells.
func TestDrainBoundMatchesRefineLoop(t *testing.T) {
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
	var compared, orderShows int
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
		for _, q := range qs {
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
