package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/network"
	"repro/internal/vocab"
)

// scanMass is the baseline's fold for one segment: every ε-near cell
// scanned member by member, the cells' sums added in Cε(ℓ) order.
func scanMass(ix *Index, sid network.SegmentID, query vocab.Set, eps float64) float64 {
	slab := ix.slab
	var mass float64
	for _, cid := range ix.SegmentCells(eps)[sid] {
		mass += ix.cellMassScan(slab.OrdinalOf(cid), query, sid, eps)
	}
	return mass
}

// TestSlabSegmentMassMatchesMapLayout: on random scenarios — unit and
// random weights, one keyword to five, duplicates and unknown words, ε
// from sub-cell to multi-cell — SegmentMass and SegmentInterest are
// Float64bits-equal, on every segment, to the baseline's member-by-member
// scan of the same cells: the postings merge and the keyword test pick
// the same POIs in the same order.
func TestSlabSegmentMassMatchesMapLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1616))
	keywordSets := [][]string{
		{"shop"}, {"zeppelin"}, {"shop", "food"}, {"food", "shop", "shop"},
		{"museum", "zeppelin"}, {"shop", "food", "museum", "park", "school"},
	}
	var multi, nonzero int
	for trial := 0; trial < 12; trial++ {
		for _, ix := range []*Index{randomScenario(rng), weightedScenario(rng)} {
			for _, eps := range []float64{0.05, 0.3, 2} {
				for _, kws := range keywordSets {
					query, _ := ix.pois.Dict().LookupAll(kws)
					for sid := 0; sid < ix.net.NumSegments(); sid++ {
						id := network.SegmentID(sid)
						want, got := scanMass(ix, id, query, eps), ix.SegmentMass(id, query, eps)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("trial %d eps=%g %v segment %d: mass %v, baseline scan %v", trial, eps, kws, sid, got, want)
						}
						wantI, gotI := Interest(want, ix.net.Segment(id).Length(), eps), ix.SegmentInterest(id, query, eps)
						if math.Float64bits(gotI) != math.Float64bits(wantI) {
							t.Fatalf("trial %d eps=%g %v segment %d: interest %v, baseline scan %v", trial, eps, kws, sid, gotI, wantI)
						}
						if want > 0 {
							nonzero++
							if len(query) > 1 {
								multi++
							}
						}
					}
				}
			}
		}
	}
	if nonzero == 0 || multi == 0 {
		t.Fatalf("scenarios too sparse: %d positive masses, %d under several keywords", nonzero, multi)
	}
}

// TestSlabSegmentMassZeroAllocs: the fold the trajectory queries call
// once per budget-feasible segment allocates nothing on a warmed
// slab-backed index, for one keyword and for several.
func TestSlabSegmentMassZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful under -race")
	}
	ix, _ := allocWorld(t)
	const eps = 0.6
	ix.Warm(eps)
	for _, kws := range [][]string{{"shop"}, {"shop", "food", "museum", "park", "school"}} {
		query, _ := ix.pois.Dict().LookupAll(kws)
		var sum float64
		allocs := testing.AllocsPerRun(50, func() {
			for sid := 0; sid < ix.net.NumSegments(); sid++ {
				sum += ix.SegmentInterest(network.SegmentID(sid), query, eps)
			}
		})
		if sum == 0 {
			t.Fatalf("%v: every interest zero; world too sparse for the gate to mean anything", kws)
		}
		if allocs != 0 {
			t.Fatalf("%d-keyword segment interest allocated %.1f objects per sweep, want 0", len(kws), allocs)
		}
	}
}
