package grid

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/vocab"
)

// smallLocs are buildSmall's objects.
var smallLocs = []geo.Point{
	geo.Pt(0.1, 0.1), geo.Pt(0.15, 0.12), // cell (0,0)
	geo.Pt(1.5, 0.1),                     // cell (1,0) with size 1
	geo.Pt(0.2, 2.7), geo.Pt(0.25, 2.75), // cell (0,2)
}

// buildSmall builds the slab of five tagged objects in three cells of a
// 3×3 lattice (4×4 cells with the closing row and column).
func buildSmall(t *testing.T) (*Slab, *vocab.Dictionary) {
	t.Helper()
	d := vocab.NewDictionary()
	keys := []vocab.Set{
		d.InternAll([]string{"shop"}),
		d.InternAll([]string{"shop", "food"}),
		d.InternAll([]string{"food"}),
		d.InternAll([]string{"shop"}),
		d.InternAll([]string{"park", "shop", "food"}),
	}
	s, err := BuildSlab(Config{CellSize: 1, Bounds: geo.R(0, 0, 3, 3)}, smallLocs, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

// members returns the object ids of cell ord.
func (s *Slab) members(ord int) []uint32 { return s.Members[s.MemberOff[ord]:s.MemberOff[ord+1]] }

// cellOf returns the ordinal of the cell holding p; it fails the test
// when that cell is empty.
func cellOf(t *testing.T, s *Slab, p geo.Point) int {
	t.Helper()
	ord := s.OrdinalOf(s.Lattice().CellIndex(p))
	if ord < 0 {
		t.Fatalf("the cell of %v is empty", p)
	}
	return ord
}

func TestBuildBasics(t *testing.T) {
	s, _ := buildSmall(t)
	if s.NumObjects != 5 {
		t.Fatalf("NumObjects = %d", s.NumObjects)
	}
	if n := s.NumCells(); n != 3 {
		t.Fatalf("%d non-empty cells, want 3", n)
	}
	if s.NX != 4 || s.NY != 4 {
		t.Fatalf("dims = %d,%d, want 4,4", s.NX, s.NY)
	}
	if s.CellSize != 1 || s.Bounds != geo.R(0, 0, 3, 3) {
		t.Fatalf("cell size %v over %v", s.CellSize, s.Bounds)
	}
}

// TestBuildErrors: a cell size that is NaN or negative, and bounds that
// are NaN, are refused before any cell is numbered.
func TestBuildErrors(t *testing.T) {
	locs := []geo.Point{geo.Pt(0, 0)}
	for _, cell := range []float64{math.NaN(), -1} {
		if _, err := BuildSlab(Config{CellSize: cell}, locs, nil, nil); err == nil {
			t.Errorf("cell size %v accepted", cell)
		}
	}
	if _, err := BuildSlab(Config{CellSize: 1, Bounds: geo.R(0, 0, math.NaN(), 1)}, locs, nil, nil); err == nil {
		t.Error("NaN bounds accepted")
	}
}

// TestBuildAutoBounds: without configured bounds the lattice covers the
// objects' bounding rectangle, and every object is a member of its cell.
func TestBuildAutoBounds(t *testing.T) {
	locs := []geo.Point{geo.Pt(1, 1), geo.Pt(4, 5), geo.Pt(2.5, 1.5)}
	s, err := BuildSlab(Config{CellSize: 1}, locs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bounds != geo.R(1, 1, 4, 5) {
		t.Fatalf("bounds %v, want the objects' rectangle", s.Bounds)
	}
	for i, p := range locs {
		if !slices.Contains(s.members(cellOf(t, s, p)), uint32(i)) {
			t.Fatalf("object %d missing from its cell", i)
		}
	}
}

// TestCellRectContainsMembers: every object lies in the rectangle of the
// cell it is a member of, and each object is a member exactly once.
func TestCellRectContainsMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	locs := make([]geo.Point, 500)
	for i := range locs {
		locs[i] = geo.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	s, err := BuildSlab(Config{CellSize: 0.7}, locs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(locs))
	for ord, id := range s.CellIDs {
		r := s.CellRect(CellID(id))
		for _, m := range s.members(ord) {
			if !r.Expand(1e-9).Contains(locs[m]) {
				t.Errorf("object %d at %v outside its cell rect %v", m, locs[m], r)
			}
			if seen[m] {
				t.Fatalf("object %d is a member twice", m)
			}
			seen[m] = true
		}
	}
	if len(s.Members) != len(locs) {
		t.Fatalf("cells hold %d objects, want %d", len(s.Members), len(locs))
	}
}

// TestCellInvertedIndex reads one cell's local inverted index c.I[ψ] and
// its bounds off the slab.
func TestCellInvertedIndex(t *testing.T) {
	s, d := buildSmall(t)
	shop, _ := d.Lookup("shop")
	food, _ := d.Lookup("food")
	ord := cellOf(t, s, geo.Pt(0.1, 0.1))
	postings := map[vocab.ID][]uint32{}
	for j := s.KwOff[ord]; j < s.KwOff[ord+1]; j++ {
		postings[vocab.ID(s.CellKw[j])] = s.Postings[s.PostOff[j]:s.PostOff[j+1]]
	}
	if got := postings[shop]; !slices.Equal(got, []uint32{0, 1}) {
		t.Errorf("shop postings = %v, want [0 1]", got)
	}
	if got := postings[food]; !slices.Equal(got, []uint32{1}) {
		t.Errorf("food postings = %v, want [1]", got)
	}
	if len(postings) != 2 {
		t.Errorf("cell keywords = %v, want shop and food", s.CellKw[s.KwOff[ord]:s.KwOff[ord+1]])
	}
	if s.PsiMin[ord] != 1 || s.PsiMax[ord] != 2 {
		t.Errorf("psi bounds = %d,%d", s.PsiMin[ord], s.PsiMax[ord])
	}
}

func TestPsiMinZeroForUntagged(t *testing.T) {
	d := vocab.NewDictionary()
	s, err := BuildSlab(Config{CellSize: 1}, []geo.Point{geo.Pt(0, 0), geo.Pt(0.1, 0.1)},
		[]vocab.Set{nil, d.InternAll([]string{"a", "b"})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ord := cellOf(t, s, geo.Pt(0, 0)); s.PsiMin[ord] != 0 || s.PsiMax[ord] != 2 {
		t.Fatalf("psi bounds = %d,%d", s.PsiMin[ord], s.PsiMax[ord])
	}
}

// TestCellsNearSegmentCoverage is the brute-force property Cε(ℓ) rests
// on, independent of any grid code: every returned cell is within eps of
// the segment, and every object within eps lives in a returned cell.
func TestCellsNearSegmentCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	locs := make([]geo.Point, 800)
	for i := range locs {
		locs[i] = geo.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	s, err := BuildSlab(Config{CellSize: 0.5, Bounds: geo.R(0, 0, 10, 10)}, locs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var near []int32
	for trial := 0; trial < 100; trial++ {
		seg := geo.Segment{
			A: geo.Pt(rng.Float64()*10, rng.Float64()*10),
			B: geo.Pt(rng.Float64()*10, rng.Float64()*10),
		}
		eps := rng.Float64() * 1.5
		near = s.CellsNearSegmentInto(seg, eps, near[:0])
		nearSet := make(map[CellID]bool, len(near))
		for i, ord := range near {
			id := CellID(s.CellIDs[ord])
			nearSet[id] = true
			if i > 0 && near[i-1] >= ord {
				t.Fatalf("ordinals not ascending: %v", near)
			}
			if s.CellRect(id).DistToSegment(seg) > eps+1e-9 {
				t.Fatalf("cell %d too far from segment", id)
			}
		}
		// Coverage: every object within eps lives in a returned cell.
		for i, p := range locs {
			if seg.DistToPoint(p) <= eps {
				if !nearSet[s.Lattice().CellIndex(p)] {
					t.Fatalf("object %d within eps but its cell not returned", i)
				}
			}
		}
	}
}

// neighborhoodIDs returns the cell ids of the slab cells within
// Chebyshev distance delta of the cell holding p.
func neighborhoodIDs(s *Slab, p geo.Point, delta int) []CellID {
	var out []CellID
	for _, ord := range s.NeighborhoodInto(s.OrdinalOf(s.Lattice().CellIndex(p)), delta, nil) {
		out = append(out, CellID(s.CellIDs[ord]))
	}
	return out
}

func TestNeighborhood(t *testing.T) {
	locs := []geo.Point{
		geo.Pt(0.5, 0.5), geo.Pt(1.5, 0.5), geo.Pt(2.5, 0.5), geo.Pt(3.5, 0.5), geo.Pt(0.5, 1.5), geo.Pt(2.5, 2.5),
	}
	s, err := BuildSlab(Config{CellSize: 1, Bounds: geo.R(0, 0, 4, 4)}, locs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	center := geo.Pt(1.5, 0.5)
	nx := CellID(s.NX)
	// Within Chebyshev distance 1 of cell (1,0): cells (0,0),(1,0),(2,0),(0,1) are non-empty.
	if got, want := neighborhoodIDs(s, center, 1), []CellID{0, 1, 2, nx}; !slices.Equal(got, want) {
		t.Fatalf("Neighborhood(1) = %v, want %v", got, want)
	}
	// delta=2 adds (3,0) and (2,2), the latter at Chebyshev distance max(1,2)=2.
	if got, want := neighborhoodIDs(s, center, 2), []CellID{0, 1, 2, 3, nx, 2 + 2*nx}; !slices.Equal(got, want) {
		t.Fatalf("Neighborhood(2) = %v, want %v", got, want)
	}
	// delta=0 is just the cell itself.
	if got := neighborhoodIDs(s, center, 0); !slices.Equal(got, []CellID{1}) {
		t.Fatalf("Neighborhood(0) = %v", got)
	}
}

func TestNeighborhoodAtBorder(t *testing.T) {
	locs := []geo.Point{geo.Pt(0.5, 0.5)}
	s, err := BuildSlab(Config{CellSize: 1, Bounds: geo.R(0, 0, 2, 2)}, locs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := neighborhoodIDs(s, locs[0], 2); !slices.Equal(got, []CellID{0}) {
		t.Fatalf("border Neighborhood = %v", got)
	}
}

// TestNeighborhoodMatchesBruteForce holds the row-range walk to the
// definition on random sparse worlds: exactly the non-empty cells whose
// column and row both differ by at most delta, ascending.
func TestNeighborhoodMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 20; trial++ {
		locs := make([]geo.Point, 1+rng.Intn(120))
		for i := range locs {
			locs[i] = geo.Pt(rng.Float64()*6, rng.Float64()*6)
		}
		s, err := BuildSlab(Config{CellSize: 0.25 + rng.Float64()}, locs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		delta := rng.Intn(4)
		for ord, id := range s.CellIDs {
			var want []int32
			for o, other := range s.CellIDs {
				dx := int(other)%s.NX - int(id)%s.NX
				dy := int(other)/s.NX - int(id)/s.NX
				if max(dx, -dx) <= delta && max(dy, -dy) <= delta {
					want = append(want, int32(o))
				}
			}
			if got := s.NeighborhoodInto(ord, delta, nil); !slices.Equal(got, want) {
				t.Fatalf("trial %d cell %d delta %d: %v, want %v", trial, id, delta, got, want)
			}
		}
	}
}

// TestNonEmptyCellsSorted: CellIDs are strictly ascending and are
// exactly the cells the objects fall into.
func TestNonEmptyCellsSorted(t *testing.T) {
	s, _ := buildSmall(t)
	var want []int32
	for _, p := range smallLocs {
		want = append(want, int32(s.Lattice().CellIndex(p)))
	}
	slices.Sort(want)
	if want = slices.Compact(want); !slices.Equal(s.CellIDs, want) {
		t.Fatalf("CellIDs = %v, want %v", s.CellIDs, want)
	}
}

// TestClampedOutOfBoundsInsert: objects outside the configured bounds are
// clamped into the border cells, not lost.
func TestClampedOutOfBoundsInsert(t *testing.T) {
	locs := []geo.Point{geo.Pt(-5, -5), geo.Pt(100, 100), geo.Pt(5, -3)}
	s, err := BuildSlab(Config{CellSize: 1, Bounds: geo.R(0, 0, 10, 10)}, locs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := int32(s.NX*s.NY - 1)
	if want := []int32{0, 5, last}; !slices.Equal(s.CellIDs, want) {
		t.Fatalf("CellIDs = %v, want the corner cells and a bottom-row cell %v", s.CellIDs, want)
	}
	if len(s.Members) != len(locs) {
		t.Fatalf("clamped objects lost: %d indexed", len(s.Members))
	}
}

// TestCoordsRoundTrip: the id = ix + iy·nx linearization round-trips
// through the lattice — a cell's rectangle sits at column ix, row iy, and
// a point inside it is assigned that id again.
func TestCoordsRoundTrip(t *testing.T) {
	s, _ := buildSmall(t)
	lat := s.Lattice()
	for iy := 0; iy < lat.NY; iy++ {
		for ix := 0; ix < lat.NX; ix++ {
			id := CellID(ix + iy*lat.NX)
			r := lat.CellRect(id)
			if r.MinX != float64(ix)*lat.CellSize || r.MinY != float64(iy)*lat.CellSize {
				t.Fatalf("CellRect(%d) = %v, want column %d row %d", id, r, ix, iy)
			}
			if got := lat.CellIndex(r.Center()); got != id {
				t.Fatalf("CellIndex(center of cell %d) = %d", id, got)
			}
		}
	}
}
