package grid

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/vocab"
)

func buildSmall(t *testing.T) (*Grid, *vocab.Dictionary) {
	t.Helper()
	d := vocab.NewDictionary()
	locs := []geo.Point{
		geo.Pt(0.1, 0.1), geo.Pt(0.15, 0.12), // cell (0,0)
		geo.Pt(1.5, 0.1),                     // cell (1,0) with size 1
		geo.Pt(0.2, 2.7), geo.Pt(0.25, 2.75), // cell (0,2)
	}
	keys := []vocab.Set{
		d.InternAll([]string{"shop"}),
		d.InternAll([]string{"shop", "food"}),
		d.InternAll([]string{"food"}),
		d.InternAll([]string{"shop"}),
		d.InternAll([]string{"park", "shop", "food"}),
	}
	g, err := Build(Config{CellSize: 1, Bounds: geo.R(0, 0, 3, 3)}, locs, keys)
	if err != nil {
		t.Fatal(err)
	}
	return g, d
}

func TestBuildBasics(t *testing.T) {
	g, _ := buildSmall(t)
	if g.Len() != 5 {
		t.Fatalf("Len = %d", g.Len())
	}
	if n := len(g.NonEmptyCells()); n != 3 {
		t.Fatalf("%d non-empty cells, want 3", n)
	}
	nx, ny := g.Dims()
	if nx < 3 || ny < 3 {
		t.Fatalf("Dims = %d,%d", nx, ny)
	}
	if g.CellSize() != 1 {
		t.Fatalf("CellSize = %v", g.CellSize())
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{CellSize: 0}, nil, nil); err == nil {
		t.Error("expected error for zero cell size")
	}
	if _, err := Build(Config{CellSize: 1}, []geo.Point{geo.Pt(0, 0)}, []vocab.Set{nil, nil}); err == nil {
		t.Error("expected error for slice length mismatch")
	}
	if _, err := Build(Config{CellSize: 1, Bounds: geo.R(2, 0, 1, 1)}, nil, nil); err == nil {
		t.Error("expected error for invalid bounds")
	}
}

func TestBuildAutoBounds(t *testing.T) {
	locs := []geo.Point{geo.Pt(1, 1), geo.Pt(4, 5)}
	g, err := Build(Config{CellSize: 1}, locs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range locs {
		c := g.CellAt(g.CellIndex(p))
		if c == nil {
			t.Fatalf("object %d not in any cell", i)
		}
		found := false
		for _, m := range c.Members {
			if m == uint32(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("object %d missing from its cell", i)
		}
	}
}

func TestCellRectContainsMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	locs := make([]geo.Point, 500)
	for i := range locs {
		locs[i] = geo.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	g, err := Build(Config{CellSize: 0.7}, locs, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, id := range g.NonEmptyCells() {
		c, r := g.CellAt(id), g.lat.CellRect(id)
		for _, m := range c.Members {
			if !r.Expand(1e-9).Contains(locs[m]) {
				t.Errorf("object %d at %v outside its cell rect %v", m, locs[m], r)
			}
		}
		total += len(c.Members)
	}
	if total != len(locs) {
		t.Fatalf("cells hold %d objects, want %d", total, len(locs))
	}
}

func TestCellInvertedIndex(t *testing.T) {
	g, d := buildSmall(t)
	shop, _ := d.Lookup("shop")
	food, _ := d.Lookup("food")
	c := g.CellAt(g.CellIndex(geo.Pt(0.1, 0.1)))
	if c == nil {
		t.Fatal("cell (0,0) empty")
	}
	if got := len(c.Inv[shop]); got != 2 {
		t.Errorf("shop postings = %d, want 2", got)
	}
	if got := len(c.Inv[food]); got != 1 {
		t.Errorf("food postings = %d, want 1", got)
	}
	if c.PsiMin != 1 || c.PsiMax != 2 {
		t.Errorf("psi bounds = %d,%d", c.PsiMin, c.PsiMax)
	}
	if !c.Keywords.Contains(shop) || !c.Keywords.Contains(food) {
		t.Errorf("cell keywords = %v", c.Keywords)
	}
	// Postings must be sorted ascending.
	for kw, ps := range c.Inv {
		if !sort.SliceIsSorted(ps, func(i, j int) bool { return ps[i] < ps[j] }) {
			t.Errorf("postings for kw %d not sorted: %v", kw, ps)
		}
	}
}

func TestPsiMinZeroForUntagged(t *testing.T) {
	d := vocab.NewDictionary()
	g, err := Build(Config{CellSize: 1}, []geo.Point{geo.Pt(0, 0), geo.Pt(0.1, 0.1)},
		[]vocab.Set{nil, d.InternAll([]string{"a", "b"})})
	if err != nil {
		t.Fatal(err)
	}
	c := g.CellAt(g.CellIndex(geo.Pt(0, 0)))
	if c.PsiMin != 0 || c.PsiMax != 2 {
		t.Fatalf("psi bounds = %d,%d", c.PsiMin, c.PsiMax)
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

func TestNonEmptyCellsSorted(t *testing.T) {
	g, _ := buildSmall(t)
	ids := g.NonEmptyCells()
	if len(ids) != len(g.cells) {
		t.Fatalf("NonEmptyCells len = %d", len(ids))
	}
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatalf("ids not sorted: %v", ids)
	}
}

func TestClampedOutOfBoundsInsert(t *testing.T) {
	// Objects outside the configured bounds are clamped into border cells.
	locs := []geo.Point{geo.Pt(-5, -5), geo.Pt(100, 100)}
	g, err := Build(Config{CellSize: 1, Bounds: geo.R(0, 0, 10, 10)}, locs, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, id := range g.NonEmptyCells() {
		total += len(g.CellAt(id).Members)
	}
	if total != 2 {
		t.Fatalf("clamped objects lost: %d indexed", total)
	}
}

// TestCoordsRoundTrip: the id = ix + iy·nx linearization round-trips
// through the lattice — a cell's rectangle sits at column ix, row iy, and
// a point inside it is assigned that id again.
func TestCoordsRoundTrip(t *testing.T) {
	g, _ := buildSmall(t)
	nx, ny := g.Dims()
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			id := CellID(ix + iy*nx)
			r := g.lat.CellRect(id)
			if r.MinX != float64(ix)*g.CellSize() || r.MinY != float64(iy)*g.CellSize() {
				t.Fatalf("CellRect(%d) = %v, want column %d row %d", id, r, ix, iy)
			}
			if got := g.CellIndex(r.Center()); got != id {
				t.Fatalf("CellIndex(center of cell %d) = %d", id, got)
			}
		}
	}
}

// TestParallelBuildMatchesSequential checks that the sharded parallel
// ingestion produces a grid bit-identical to the sequential build. Build
// only takes the parallel path above parallelBuildThreshold objects and
// with GOMAXPROCS ≥ 2, so the test drives buildCellsParallel directly
// with forced worker counts — including ones that don't divide the cell
// count evenly.
func TestParallelBuildMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := vocab.NewDictionary()
	n := parallelBuildThreshold + 513
	locs := make([]geo.Point, n)
	keys := make([]vocab.Set, n)
	words := []string{"shop", "food", "park", "museum", "cafe"}
	for i := range locs {
		locs[i] = geo.Pt(rng.Float64()*9, rng.Float64()*9)
		var tags []string
		for _, w := range words {
			if rng.Float64() < 0.3 {
				tags = append(tags, w)
			}
		}
		keys[i] = d.InternAll(tags)
	}
	cfg := Config{CellSize: 0.4, Bounds: geo.R(0, 0, 9, 9)}
	seq, err := Build(cfg, locs, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		par, err := Build(cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		par.n = n
		par.buildCellsParallel(locs, keys, workers)
		if len(par.cells) != len(seq.cells) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(par.cells), len(seq.cells))
		}
		for _, id := range seq.NonEmptyCells() {
			want, got := seq.CellAt(id), par.CellAt(id)
			if got == nil {
				t.Fatalf("workers=%d: cell %d missing", workers, id)
			}
			if len(got.Members) != len(want.Members) {
				t.Fatalf("workers=%d cell %d: %d members, want %d", workers, id, len(got.Members), len(want.Members))
			}
			for i := range want.Members {
				if got.Members[i] != want.Members[i] {
					t.Fatalf("workers=%d cell %d member %d differs", workers, id, i)
				}
			}
			if got.PsiMin != want.PsiMin || got.PsiMax != want.PsiMax {
				t.Fatalf("workers=%d cell %d psi bounds differ", workers, id)
			}
			if !got.Keywords.Equal(want.Keywords) {
				t.Fatalf("workers=%d cell %d keywords differ", workers, id)
			}
			if len(got.Inv) != len(want.Inv) {
				t.Fatalf("workers=%d cell %d inverted index size differs", workers, id)
			}
			for kw, ps := range want.Inv {
				gps := got.Inv[kw]
				if len(gps) != len(ps) {
					t.Fatalf("workers=%d cell %d kw %d postings differ", workers, id, kw)
				}
				for i := range ps {
					if gps[i] != ps[i] {
						t.Fatalf("workers=%d cell %d kw %d posting %d differs", workers, id, kw, i)
					}
				}
			}
		}
	}
}
