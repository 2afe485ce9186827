package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
)

func TestSegmentsByCellCountSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ix := randomScenario(rng)
	eps := 0.3
	sl2 := ix.SegmentsByCellCount(eps)
	sc := ix.SegmentCells(eps)
	if len(sl2) != ix.Network().NumSegments() {
		t.Fatalf("SL2 len = %d", len(sl2))
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
	// Memoized: same slice on second call.
	again := ix.SegmentsByCellCount(eps)
	if &again[0] != &sl2[0] {
		t.Fatal("SL2 not memoized")
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
	sl1 := ix.maps().buildSL1(query)
	if len(sl1) != 1 {
		t.Fatalf("SL1 = %v", sl1)
	}
	if sl1[0].Weight != 1 {
		t.Fatalf("SL1 weight = %v, want capped at 1", sl1[0].Weight)
	}
}

func TestBuildSL1SortedDesc(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ix := randomScenario(rng)
	query, _ := ix.POIs().Dict().LookupAll([]string{"shop", "food"})
	sl1 := ix.maps().buildSL1(query)
	for i := 1; i < len(sl1); i++ {
		if sl1[i].Weight > sl1[i-1].Weight {
			t.Fatalf("SL1 not sorted desc at %d", i)
		}
	}
	// Unknown keyword → empty SL1.
	if got := ix.maps().buildSL1(nil); len(got) != 0 {
		t.Fatalf("empty query SL1 = %v", got)
	}
}

// cellMassScan (the baseline's grid-only evaluation) must agree with the
// postings-based cellMassContribution on every (cell, segment) pair.
func TestCellMassScanAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 10; trial++ {
		ix := randomScenario(rng)
		query, _ := ix.POIs().Dict().LookupAll([]string{"shop", "museum"})
		eps := 0.1 + rng.Float64()*0.4
		sc := ix.SegmentCells(eps)
		for sid := 0; sid < ix.Network().NumSegments(); sid++ {
			for _, cid := range sc[sid] {
				cell := ix.Grid().CellAt(cid)
				a := ix.cellMassContribution(cell, query, network.SegmentID(sid), eps)
				b := ix.cellMassScan(cell, query, network.SegmentID(sid), eps)
				if math.Abs(a-b) > 1e-12 {
					t.Fatalf("trial %d seg %d cell %d: postings %v != scan %v", trial, sid, cid, a, b)
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
		// The static bound dominates every segment, on either layout.
		for _, bix := range []*Index{ix, compactTwin(t, ix)} {
			ub, err := bix.UnseenBound(q)
			if err != nil {
				t.Fatal(err)
			}
			for sid, in := range ints {
				if in > ub {
					t.Fatalf("trial %d: segment %d interest %v exceeds the static bound %v", trial, sid, in, ub)
				}
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

func TestWarmCoversAllStructures(t *testing.T) {
	ix := buildFixture(t)
	ix.Warm(0.1)
	m := ix.maps()
	m.mu.Lock()
	_, sc := m.segCells[0.1]
	_, cs := m.cellSegs[0.1]
	_, sl := m.sl2[0.1]
	m.mu.Unlock()
	if !sc || !cs || !sl {
		t.Fatalf("Warm left structures cold: segCells=%v cellSegs=%v sl2=%v", sc, cs, sl)
	}
}

// CellSegments must be the exact inverse of SegmentCells.
func TestCellSegmentInversion(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	ix := randomScenario(rng)
	eps := 0.25
	sc := ix.SegmentCells(eps)
	cs := ix.CellSegments(eps)
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
