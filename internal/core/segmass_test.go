package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/network"
)

// TestSlabSegmentMassMatchesMapLayout: on random scenarios — unit and
// random weights, one keyword to five, duplicates and unknown words, ε
// from sub-cell to multi-cell — a slab-backed index's SegmentMass and
// SegmentInterest are Float64bits-equal to the map layout's on every
// segment, and computing them leaves the map-layout ε-memos unbuilt.
func TestSlabSegmentMassMatchesMapLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1616))
	keywordSets := [][]string{
		{"shop"}, {"zeppelin"}, {"shop", "food"}, {"food", "shop", "shop"},
		{"museum", "zeppelin"}, {"shop", "food", "museum", "park", "school"},
	}
	var multi, nonzero int
	for trial := 0; trial < 12; trial++ {
		for _, mapIx := range []*Index{randomScenario(rng), weightedScenario(rng)} {
			slabIx := compactTwin(t, mapIx)
			for _, eps := range []float64{0.05, 0.3, 2} {
				for _, kws := range keywordSets {
					query, _ := mapIx.pois.Dict().LookupAll(kws)
					for sid := 0; sid < mapIx.net.NumSegments(); sid++ {
						id := network.SegmentID(sid)
						want, got := mapIx.SegmentMass(id, query, eps), slabIx.SegmentMass(id, query, eps)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("trial %d eps=%g %v segment %d: slab mass %v, map mass %v", trial, eps, kws, sid, got, want)
						}
						wantI, gotI := mapIx.SegmentInterest(id, query, eps), slabIx.SegmentInterest(id, query, eps)
						if math.Float64bits(gotI) != math.Float64bits(wantI) {
							t.Fatalf("trial %d eps=%g %v segment %d: slab interest %v, map interest %v", trial, eps, kws, sid, gotI, wantI)
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
			if a, b, c := slabIx.MapMemoSizes(); a+b+c != 0 {
				t.Fatalf("trial %d: slab-backed segment masses built map-layout ε-memos (segCells=%d cellSegs=%d sl2=%d)", trial, a, b, c)
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
	base, _, _ := allocWorld(t)
	ix := compactTwin(t, base)
	const eps = 0.6
	ix.SlabIndex().Warm(eps)
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
