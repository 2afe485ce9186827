package grid

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
)

// TestAxisIndexSaturates pins the float→int conversion every lattice index
// goes through: a quotient outside the int range saturates instead of
// wrapping, NaN goes to cell 0, and every in-range offset truncates as
// before.
func TestAxisIndexSaturates(t *testing.T) {
	const n = 7
	for _, c := range []struct {
		offset, cell float64
		want         int
	}{
		{1e300, 1, n - 1}, {-1e300, 1, 0},
		{1e300, 1e-300, n - 1}, {-1e300, 1e-300, 0}, // the quotient itself overflows to ±Inf
		{math.Inf(1), 1, n - 1}, {math.Inf(-1), 1, 0},
		{math.NaN(), 1, 0},
		{1e19, 1, n - 1}, {-1e19, 1, 0}, // just past the int64 range
		{-0.9, 1, 0}, {0, 1, 0}, {0.9, 1, 0}, {1, 1, 1}, {5.99, 1, 5}, {6, 1, 6}, {6.5, 1, 6}, {7, 1, 6},
		{2.9, 0.5, 5}, {3, 0.5, 6}, {-0.4, 0.5, 0},
	} {
		if got := axisIndex(c.offset, c.cell, n); got != c.want {
			t.Errorf("axisIndex(%g, %g, %d) = %d, want %d", c.offset, c.cell, n, got, c.want)
		}
	}
}

// TestCellsNearHugeEpsilon: at an ε past the int range every non-empty
// cell is near every segment.
func TestCellsNearHugeEpsilon(t *testing.T) {
	s, _ := buildSmall(t)
	seg := geo.Segment{A: geo.Pt(0.3, 0.3), B: geo.Pt(0.6, 0.4)}
	for _, eps := range []float64{1e17, 1e20, 1e100, 1e300} {
		if got := len(s.CellsNearSegmentInto(seg, eps, nil)); got != s.NumCells() {
			t.Errorf("ε=%g: Slab.CellsNearSegmentInto found %d of %d cells", eps, got, s.NumCells())
		}
	}
}

// TestLatticeAgreesWithSlab: over the lattice of a built slab, Cells
// reproduces the slab's non-empty cells and places every object in the
// cell the slab did, and MarkNearSegment sets exactly the cells
// CellsNearSegmentInto lists — skipping, not re-testing, those already set.
func TestLatticeAgreesWithSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	locs := make([]geo.Point, 3000)
	for i := range locs {
		locs[i] = geo.Pt(rng.Float64()*0.02, rng.Float64()*0.015)
	}
	s, err := BuildSlab(Config{CellSize: 0.0005}, locs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := s.Lattice()
	cellIDs, cellOf := lat.Cells(&sliceObjects{locs: locs})
	if !slices.Equal(cellIDs, s.CellIDs) {
		t.Fatalf("Cells lists %d cells, the slab %d, or in another order", len(cellIDs), len(s.CellIDs))
	}
	for i, p := range locs {
		if got, want := cellOf[i], s.OrdinalOf(lat.CellIndex(p)); int(got) != want {
			t.Fatalf("object %d: cell index %d, slab ordinal %d", i, got, want)
		}
	}
	marked := make([]bool, len(cellIDs))
	want := make([]bool, len(cellIDs))
	var total int
	for i := 0; i <= 150; i++ {
		seg := geo.Segment{
			A: geo.Pt(rng.Float64()*0.02, rng.Float64()*0.015),
			B: geo.Pt(rng.Float64()*0.02, rng.Float64()*0.015),
		}
		eps := []float64{0, 0.0002, 0.0012}[i%3]
		if i == 150 {
			eps = 1 // past the extent: completes the set
		}
		var fresh int
		for _, ord := range s.CellsNearSegmentInto(seg, eps, nil) {
			if !want[ord] {
				want[ord] = true
				fresh++
			}
		}
		if got := lat.MarkNearSegment(cellIDs, seg, eps, marked); got != fresh {
			t.Fatalf("round %d ε=%g: MarkNearSegment newly set %d cells, want %d", i, eps, got, fresh)
		}
		if !slices.Equal(marked, want) {
			t.Fatalf("round %d ε=%g: marks differ from CellsNearSegmentInto", i, eps)
		}
		total += fresh
	}
	if total != len(cellIDs) {
		t.Fatalf("marked %d of %d cells; the last round should have completed the set", total, len(cellIDs))
	}
}
