package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// sl1Of builds the query's SL1 on a scratch run, the way an evaluation
// does, and returns copies of its cell ordinals and weights.
func sl1Of(ix *Index, query vocab.Set, eps float64) ([]int32, []float64) {
	r := &slabRun{ix: ix, query: query, k: 1, eps: eps}
	r.begin(ix.plan(eps))
	return append([]int32(nil), r.sl1Cell...), append([]float64(nil), r.sl1W...)
}

// bruteSegmentCells derives Cε(ℓ) from the definition alone: for every
// segment, every non-empty cell whose rectangle lies within eps of it,
// ascending — each (segment, cell) pair tested, no span or row walk.
func bruteSegmentCells(ix *Index, eps float64) [][]grid.CellID {
	slab := ix.slab
	out := make([][]grid.CellID, ix.net.NumSegments())
	for sid := range out {
		seg := ix.net.Segment(network.SegmentID(sid)).Geom
		for _, id := range slab.CellIDs {
			if slab.CellRect(grid.CellID(id)).DistToSegment(seg) <= eps {
				out[sid] = append(out[sid], grid.CellID(id))
			}
		}
	}
	return out
}

// TestSegmentCellsMatchBruteForce: the ε-plan's Cε(ℓ), as SegmentCells
// spells it, is the brute-force one on random scenarios from sub-cell to
// multi-cell ε, so every reader of the plan — SOI, SegmentMass, Baseline
// — folds over exactly the cells the definition names.
func TestSegmentCellsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		ix := randomScenario(rng)
		for _, eps := range []float64{0.05, 0.3, 2} {
			got, want := ix.SegmentCells(eps), bruteSegmentCells(ix, eps)
			for sid := range want {
				if !slices.Equal(got[sid], want[sid]) {
					t.Fatalf("trial %d eps=%g segment %d: Cε(ℓ) %v, brute force %v", trial, eps, sid, got[sid], want[sid])
				}
			}
		}
	}
}

// bruteSL1 derives SL1's weights from the corpus alone: per cell of the
// lattice, each query keyword's POI weights summed in POI id order,
// the keyword sums added in keyword order, and the total capped at the
// cell's POI weight. capBinds reports whether the cap lowered any cell.
func bruteSL1(ix *Index, query vocab.Set) (weights map[grid.CellID]float64, capBinds bool) {
	lat := ix.slab.Lattice()
	perKw := make([]map[grid.CellID]float64, len(query))
	for i := range perKw {
		perKw[i] = map[grid.CellID]float64{}
	}
	cellWeight := map[grid.CellID]float64{}
	for _, p := range ix.pois.All() {
		cid := lat.CellIndex(p.Loc)
		cellWeight[cid] += p.Weight
		for i, kw := range query {
			if slices.Contains(p.Keywords, kw) {
				perKw[i][cid] += p.Weight
			}
		}
	}
	weights = map[grid.CellID]float64{}
	for cid, total := range cellWeight {
		var w float64
		var relevant bool
		for i := range query {
			if kw, ok := perKw[i][cid]; ok {
				w += kw
				relevant = true
			}
		}
		if !relevant {
			continue
		}
		if w > total {
			w, capBinds = total, true
		}
		weights[cid] = w
	}
	return weights, capBinds
}

// The ε-plan's SL2 lists every segment decreasingly by |Cε(ℓ)| — the
// counts brute force gives — ties by ascending id, and is built once per
// ε.
func TestSegmentsByCellCountSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ix := randomScenario(rng)
	eps := 0.3
	plan := ix.plan(eps)
	sl2 := plan.sl2
	sc := bruteSegmentCells(ix, eps)
	if len(sl2) != ix.Network().NumSegments() {
		t.Fatalf("SL2 len = %d", len(sl2))
	}
	for sid := range sc {
		if got := int(plan.segCellOff[sid+1] - plan.segCellOff[sid]); got != len(sc[sid]) {
			t.Fatalf("segment %d: plan holds %d ε-near cells, brute force %d", sid, got, len(sc[sid]))
		}
	}
	for i := 1; i < len(sl2); i++ {
		a, b := len(sc[sl2[i-1]]), len(sc[sl2[i]])
		if a < b {
			t.Fatalf("SL2 not sorted desc at %d: %d then %d", i, a, b)
		}
		if a == b && sl2[i-1] >= sl2[i] {
			t.Fatalf("SL2 tie not broken by id at %d", i)
		}
	}
	if again := ix.plan(eps); again != plan {
		t.Fatal("ε-plan not memoized")
	}
}

func TestSegsByLenSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ix := randomScenario(rng)
	net := ix.Network()
	prev := -1.0
	for _, sid := range ix.segsByLen {
		l := net.Segment(sid).Length()
		if l < prev {
			t.Fatalf("SL3 not sorted ascending: %v after %v", l, prev)
		}
		prev = l
	}
}

// buildSL1 must cap multi-keyword cell weights at the cell's total POI
// weight (Algorithm 1 line 2: min(|Pc|, Σψ I[ψ][c])).
func TestBuildSL1Cap(t *testing.T) {
	nb := network.NewBuilder()
	nb.AddStreet("s", []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)})
	net, _ := nb.Build()
	pb := poi.NewBuilder(nil)
	// One POI carrying both keywords: the naive sum over keywords counts
	// it twice, the cap brings it back to 1.
	pb.Add(geo.Pt(0.5, 0.01), []string{"shop", "food"})
	ix, err := NewIndex(net, pb.Build(), IndexConfig{CellSize: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	query, _ := ix.POIs().Dict().LookupAll([]string{"shop", "food"})
	cells, weights := sl1Of(ix, query, 0.1)
	if len(cells) != 1 {
		t.Fatalf("SL1 = %v %v", cells, weights)
	}
	if weights[0] != 1 {
		t.Fatalf("SL1 weight = %v, want capped at 1", weights[0])
	}
}

// buildSL1 lists exactly the query-relevant cells, each with the weight
// the corpus gives it, decreasingly by weight and ties by cell — for one
// keyword (the slab's inverted range as it stands) and for several (the
// accumulated, capped and sorted list).
func TestBuildSL1SortedDesc(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var capBound bool
	for trial := 0; trial < 10; trial++ {
		ix := weightedScenario(rng)
		for _, kws := range [][]string{{"shop"}, {"shop", "food"}, {"food", "museum", "park", "school"}} {
			query, _ := ix.POIs().Dict().LookupAll(kws)
			cells, weights := sl1Of(ix, query, 0.3)
			want, capped := bruteSL1(ix, query)
			capBound = capBound || capped
			if len(cells) != len(want) {
				t.Fatalf("trial %d %v: SL1 lists %d cells, the corpus has %d relevant ones", trial, kws, len(cells), len(want))
			}
			for i, ord := range cells {
				cid := grid.CellID(ix.slab.CellIDs[ord])
				if math.Float64bits(weights[i]) != math.Float64bits(want[cid]) {
					t.Fatalf("trial %d %v: cell %d weight %v, corpus %v", trial, kws, cid, weights[i], want[cid])
				}
				if i > 0 && (weights[i] > weights[i-1] || (weights[i] == weights[i-1] && ord <= cells[i-1])) {
					t.Fatalf("trial %d %v: SL1 out of order at %d", trial, kws, i)
				}
			}
		}
		// No known keyword → empty SL1.
		if cells, _ := sl1Of(ix, nil, 0.3); len(cells) != 0 {
			t.Fatalf("empty query SL1 = %v", cells)
		}
	}
	if !capBound {
		t.Fatal("the cell-weight cap never bound; the scenarios no longer cover it")
	}
}

// cellMassScan (the baseline's grid-only evaluation) must agree, on every
// (cell, segment) pair, with a scan of the whole corpus restricted to the
// POIs the grid places in that cell.
func TestCellMassScanAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 10; trial++ {
		ix := randomScenario(rng)
		query, _ := ix.POIs().Dict().LookupAll([]string{"shop", "museum"})
		eps := 0.1 + rng.Float64()*0.4
		sc := ix.SegmentCells(eps)
		slab := ix.slab
		lat := slab.Lattice()
		for sid := 0; sid < ix.Network().NumSegments(); sid++ {
			seg := ix.Network().Segment(network.SegmentID(sid)).Geom
			for _, cid := range sc[sid] {
				var want float64
				for _, p := range ix.POIs().All() {
					if lat.CellIndex(p.Loc) == cid && p.Keywords.Intersects(query) && seg.DistToPointSq(p.Loc) <= eps*eps {
						want += p.Weight
					}
				}
				if got := ix.cellMassScan(slab.OrdinalOf(cid), query, network.SegmentID(sid), eps); got != want {
					t.Fatalf("trial %d seg %d cell %d: scan %v != corpus %v", trial, sid, cid, got, want)
				}
			}
		}
	}
}

// The unseen upper bound must never underestimate the interest of an
// actually-unseen segment: run the filter to completion on random data
// and verify against the exhaustive oracle that no unseen segment beats
// the reported k-th street, and that the static bound before any pop
// (UnseenBound) dominates every segment. The per-shard and brute-force
// variant is TestUnseenBoundSoundnessOracle.
func TestUnseenBoundSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 15; trial++ {
		ix := randomScenario(rng)
		q := Query{Keywords: []string{"shop"}, K: 2, Epsilon: 0.1 + rng.Float64()*0.3}
		res, _, err := ix.SOI(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) < q.K {
			continue // fewer than k interesting streets exist
		}
		kth := res[len(res)-1].Interest
		ints, err := ix.AllSegmentInterests(q)
		if err != nil {
			t.Fatal(err)
		}
		// The static bound dominates every segment.
		ub, err := ix.UnseenBound(q)
		if err != nil {
			t.Fatal(err)
		}
		for sid, in := range ints {
			if in > ub {
				t.Fatalf("trial %d: segment %d interest %v exceeds the static bound %v", trial, sid, in, ub)
			}
		}
		// Count streets strictly above the k-th reported interest; there
		// must be fewer than k (otherwise SOI missed one).
		streetBest := map[network.StreetID]float64{}
		for sid, in := range ints {
			street := ix.Network().Segment(network.SegmentID(sid)).Street
			if in > streetBest[street] {
				streetBest[street] = in
			}
		}
		var above int
		for _, v := range streetBest {
			if v > kth+1e-9 {
				above++
			}
		}
		if above >= q.K {
			t.Fatalf("trial %d: %d streets beat the reported k-th interest %v", trial, above, kth)
		}
	}
}

// Warm must leave nothing for the first query to build: the ε-plan with
// both cell↔segment maps and SL2 is memoized, and evaluating at that ε
// adds no plan.
func TestWarmCoversAllStructures(t *testing.T) {
	ix := buildFixture(t)
	ix.Warm(0.1)
	ix.mu.RLock()
	p := ix.plans[0.1]
	ix.mu.RUnlock()
	if p == nil || len(p.segCell) == 0 || len(p.cellSeg) != len(p.segCell) || len(p.sl2) != ix.Network().NumSegments() {
		t.Fatalf("Warm left structures cold: %+v", p)
	}
	if _, _, err := ix.SOI(Query{Keywords: []string{"shop"}, K: 1, Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if n := len(ix.plans); n != 1 {
		t.Fatalf("%d ε-plans after one warmed query, want 1", n)
	}
}

// CellSegments must be the exact inverse of SegmentCells.
func TestCellSegmentInversion(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	ix := randomScenario(rng)
	eps := 0.25
	sc := ix.SegmentCells(eps)
	cs := map[grid.CellID][]network.SegmentID{}
	for ord, id := range ix.slab.CellIDs {
		cs[grid.CellID(id)] = ix.CellSegments(eps, ord)
	}
	// Forward: every (segment, cell) pair appears in the inverse.
	for sid, cells := range sc {
		for _, cid := range cells {
			found := false
			for _, s := range cs[cid] {
				if int(s) == sid {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("pair (%d, %d) missing from inverse", sid, cid)
			}
		}
	}
	// Backward: counts match.
	var fwd, bwd int
	for _, cells := range sc {
		fwd += len(cells)
	}
	for _, segs := range cs {
		bwd += len(segs)
	}
	if fwd != bwd {
		t.Fatalf("pair counts: forward %d, backward %d", fwd, bwd)
	}
}

// AllSegmentInterests must rank identically to sorting exact per-segment
// computations.
func TestAllSegmentInterestsConsistency(t *testing.T) {
	ix := buildFixture(t)
	q := Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.1}
	ints, err := ix.AllSegmentInterests(q)
	if err != nil {
		t.Fatal(err)
	}
	query, _ := ix.POIs().Dict().LookupAll(q.Keywords)
	for sid := range ints {
		want := ix.SegmentInterest(network.SegmentID(sid), query, q.Epsilon)
		if math.Abs(ints[sid]-want) > 1e-12 {
			t.Fatalf("segment %d: %v != %v", sid, ints[sid], want)
		}
	}
	// And the order is stable under sorting by interest.
	idx := make([]int, len(ints))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return ints[idx[i]] > ints[idx[j]] })
	if ints[idx[0]] < ints[idx[len(idx)-1]] {
		t.Fatal("sorting sanity failed")
	}
}

// Index must support concurrent queries after warming (run with -race to
// verify).
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ix := randomScenario(rng)
	ix.Warm(0.2)
	q := Query{Keywords: []string{"shop", "food"}, K: 3, Epsilon: 0.2}
	want, _, err := ix.SOI(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, _, err := ix.SOI(q)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want) {
					errs <- fmt.Errorf("concurrent result drift: %d vs %d", len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
