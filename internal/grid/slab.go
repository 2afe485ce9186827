// Slab is the compact, struct-of-arrays form of the grid plus the
// weighted global inverted index of Section 3.2.1, flattened into a
// handful of contiguous arrays: per-cell member and postings lists become
// offset ranges into shared uint32 segments, and the keyword → cells map
// becomes a vocab-major CSR (one offset range of (cell, weight) entries
// per keyword id, sorted decreasingly by weight). The layout removes every
// per-cell map and pointer, so query hot loops walk dense arrays only, and
// it admits a trivially mmap-able binary encoding (slabio.go).
//
// A Slab is immutable after construction; every slice field is shared,
// read-only data. Callers (including internal/core's SL1/SL2/SL3 loops)
// must not modify any field.

package grid

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/poi"
)

// Slab is the flattened grid index. Cells appear in ascending CellID
// order; the index of a cell in CellIDs is its ordinal, and every other
// per-cell array is indexed by ordinal.
type Slab struct {
	// Bounds, CellSize, NX and NY are the lattice the objects were placed
	// on: the configured bounds, or the objects' bounding rectangle when
	// none were given. Each object lies in the cell Lattice.CellIndex
	// assigns it.
	Bounds   geo.Rect
	CellSize float64
	NX, NY   int
	// NumObjects is the number of indexed objects; object ids are dense
	// in [0, NumObjects).
	NumObjects int
	// VocabN is the keyword id space size covered by the inverted index
	// (max posting keyword id + 1); keywords ≥ VocabN have no postings.
	VocabN int

	// CellIDs lists the non-empty cells, sorted ascending.
	CellIDs []int32
	// PsiMin and PsiMax carry the per-cell keyword-set cardinality bounds
	// (c.ψmin, c.ψmax): the fewest and most keywords any member carries,
	// 0 for a member without keywords.
	PsiMin, PsiMax []int32
	// CellWeight is the total object weight per cell (|Pc| generalized to
	// weights), summed from 0 over the members in ascending id.
	CellWeight []float64

	// MemberOff[i] .. MemberOff[i+1] delimits cell i's members (object
	// ids, sorted ascending) in Members. len(MemberOff) == NumCells()+1.
	MemberOff []uint32
	Members   []uint32

	// KwOff[i] .. KwOff[i+1] delimits cell i's keyword entries in CellKw
	// (keyword ids, sorted ascending). For entry j, PostOff[j] ..
	// PostOff[j+1] delimits the keyword's postings (object ids, sorted
	// ascending) in Postings. len(PostOff) == len(CellKw)+1.
	KwOff    []uint32
	CellKw   []uint32
	PostOff  []uint32
	Postings []uint32

	// InvOff[kw] .. InvOff[kw+1] delimits keyword kw's entries in InvCell
	// and InvWeight: the cells (as ordinals) containing the keyword with
	// their relevant weights — the weights of the keyword's postings in
	// the cell, summed from 0 in ascending id — sorted decreasingly by
	// weight, ties broken by ascending cell. len(InvOff) == VocabN+1.
	InvOff    []uint32
	InvCell   []int32
	InvWeight []float64

	// ObjX, ObjY and ObjW are the object coordinates and weights (1 when
	// the build was given none), indexed by object id (struct-of-arrays so
	// distance kernels stream them).
	ObjX, ObjY, ObjW []float64
}

// NumCells returns the number of non-empty cells.
func (s *Slab) NumCells() int { return len(s.CellIDs) }

// OrdinalOf returns the ordinal of cell id, or -1 when the cell is empty.
func (s *Slab) OrdinalOf(id CellID) int {
	lo, hi := 0, len(s.CellIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.CellIDs[mid] < int32(id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.CellIDs) && s.CellIDs[lo] == int32(id) {
		return lo
	}
	return -1
}

// Lattice returns the slab's cell geometry.
func (s *Slab) Lattice() Lattice {
	return Lattice{Bounds: s.Bounds, CellSize: s.CellSize, NX: s.NX, NY: s.NY}
}

// CellRect returns the rectangle covered by cell id.
func (s *Slab) CellRect(id CellID) geo.Rect { return s.Lattice().CellRect(id) }

// CellsNearSegmentInto appends the ordinals of all non-empty cells whose
// rectangle lies within distance eps of seg to buf (ascending), reusing
// its capacity. This realizes the ε-augmented segment-to-cell map Cε(ℓ):
// any object within eps of the segment lives in one of the returned cells.
func (s *Slab) CellsNearSegmentInto(seg geo.Segment, eps float64, buf []int32) []int32 {
	lat := s.Lattice()
	test := newNearTest(seg, eps)
	ix0, ix1, iy0, iy1 := lat.span(seg.Bounds().Expand(eps))
	ord := 0
	for iy := iy0; iy <= iy1; iy++ {
		row := iy * s.NX
		for ord = rowStart(s.CellIDs, ord, int32(row+ix0)); ord < len(s.CellIDs) && int(s.CellIDs[ord]) <= row+ix1; ord++ {
			if test.cell(lat.cellRect(int(s.CellIDs[ord])-row, iy)) {
				buf = append(buf, int32(ord))
			}
		}
	}
	return buf
}

// NeighborhoodInto appends the ordinals of all non-empty cells within
// Chebyshev distance delta of cell ord — the (2δ+1)² block around it, the
// cell itself included — to buf (ascending), reusing its capacity. Used by
// the diversification spatial relevance bounds with delta = 2 (Eq. 12).
func (s *Slab) NeighborhoodInto(ord, delta int, buf []int32) []int32 {
	ix, iy := int(s.CellIDs[ord])%s.NX, int(s.CellIDs[ord])/s.NX
	ix0, ix1 := max(ix-delta, 0), min(ix+delta, s.NX-1)
	o := 0
	for y := max(iy-delta, 0); y <= min(iy+delta, s.NY-1); y++ {
		row := y * s.NX
		for o = rowStart(s.CellIDs, o, int32(row+ix0)); o < len(s.CellIDs) && int(s.CellIDs[o]) <= row+ix1; o++ {
			buf = append(buf, int32(o))
		}
	}
	return buf
}

// Validate checks the slab's structural invariants: monotone offset
// arrays that end at their target array's length, sorted cell ids within
// the grid dimensions, in-range ordinals, object ids and keyword ids,
// finite geometry, object weights poi.CheckWeight accepts, cell and
// inverted weights that are finite and not negative, and NumObjects
// members in all. Decoded slabs are validated before use so a corrupt
// snapshot surfaces as an error wrapping ErrSlabMalformed instead of an
// out-of-range panic or a wrong answer. It allocates nothing; whether
// the cells partition the objects, with their keywords and postings in
// order, is left to callers that derive per-object data from the cells
// (snapshot.Decode), since checking it fast takes a bitmap.
func (s *Slab) Validate() error {
	if err := s.validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrSlabMalformed, err)
	}
	return nil
}

func (s *Slab) validate() error {
	if s.NX <= 0 || s.NY <= 0 {
		return fmt.Errorf("grid: slab dims %dx%d", s.NX, s.NY)
	}
	if !(s.CellSize > 0) || math.IsInf(s.CellSize, 0) {
		return fmt.Errorf("grid: slab cell size %v", s.CellSize)
	}
	if !s.Bounds.IsValid() {
		return fmt.Errorf("grid: slab bounds %v invalid", s.Bounds)
	}
	if s.NumObjects < 0 || s.VocabN < 0 {
		return fmt.Errorf("grid: slab negative counts (%d objects, %d keywords)", s.NumObjects, s.VocabN)
	}
	c := len(s.CellIDs)
	if len(s.PsiMin) != c || len(s.PsiMax) != c || len(s.CellWeight) != c {
		return fmt.Errorf("grid: slab per-cell array lengths disagree with %d cells", c)
	}
	if len(s.ObjX) != s.NumObjects || len(s.ObjY) != s.NumObjects || len(s.ObjW) != s.NumObjects {
		return fmt.Errorf("grid: slab object arrays disagree with %d objects", s.NumObjects)
	}
	limit := int64(s.NX) * int64(s.NY)
	for i, id := range s.CellIDs {
		if int64(id) < 0 || int64(id) >= limit {
			return fmt.Errorf("grid: slab cell id %d outside %dx%d grid", id, s.NX, s.NY)
		}
		if i > 0 && s.CellIDs[i-1] >= id {
			return fmt.Errorf("grid: slab cell ids not strictly increasing at %d", i)
		}
	}
	if err := checkCSR("members", s.MemberOff, c, len(s.Members)); err != nil {
		return err
	}
	if err := checkCSR("cell keywords", s.KwOff, c, len(s.CellKw)); err != nil {
		return err
	}
	if err := checkCSR("postings", s.PostOff, len(s.CellKw), len(s.Postings)); err != nil {
		return err
	}
	if err := checkCSR("inverted", s.InvOff, s.VocabN, len(s.InvCell)); err != nil {
		return err
	}
	if len(s.InvWeight) != len(s.InvCell) {
		return fmt.Errorf("grid: slab inverted weights (%d) disagree with cells (%d)", len(s.InvWeight), len(s.InvCell))
	}
	for _, m := range s.Members {
		if int(m) >= s.NumObjects {
			return fmt.Errorf("grid: slab member id %d outside %d objects", m, s.NumObjects)
		}
	}
	for _, m := range s.Postings {
		if int(m) >= s.NumObjects {
			return fmt.Errorf("grid: slab posting id %d outside %d objects", m, s.NumObjects)
		}
	}
	for _, kw := range s.CellKw {
		if int(kw) >= s.VocabN {
			return fmt.Errorf("grid: slab keyword id %d outside vocab %d", kw, s.VocabN)
		}
	}
	for _, ord := range s.InvCell {
		if ord < 0 || int(ord) >= c {
			return fmt.Errorf("grid: slab inverted ordinal %d outside %d cells", ord, c)
		}
	}
	for i := range s.ObjX {
		if !finite(s.ObjX[i]) || !finite(s.ObjY[i]) {
			return fmt.Errorf("grid: slab object %d at (%v, %v)", i, s.ObjX[i], s.ObjY[i])
		}
		if err := poi.CheckWeight(s.ObjW[i]); err != nil {
			return fmt.Errorf("grid: slab object %d: %w", i, err)
		}
	}
	for _, ws := range [][]float64{s.CellWeight, s.InvWeight} {
		for i, w := range ws {
			// The test is positive so that NaN fails it.
			if !(w >= 0) || math.IsInf(w, 1) {
				return fmt.Errorf("grid: slab cell or inverted weight %v at %d", w, i)
			}
		}
	}
	if len(s.Members) != s.NumObjects {
		return fmt.Errorf("grid: slab lists %d members for %d objects", len(s.Members), s.NumObjects)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkCSR validates one offset array: len n+1, starting at zero,
// non-decreasing, ending at the target length.
func checkCSR(name string, off []uint32, n, target int) error {
	if len(off) != n+1 {
		return fmt.Errorf("grid: slab %s offsets len %d, want %d", name, len(off), n+1)
	}
	if off[0] != 0 {
		return fmt.Errorf("grid: slab %s offsets start at %d", name, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("grid: slab %s offsets decrease at %d", name, i)
		}
	}
	if int(off[n]) != target {
		return fmt.Errorf("grid: slab %s offsets end at %d, want %d", name, off[n], target)
	}
	return nil
}
