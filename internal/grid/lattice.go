package grid

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
)

// Lattice is the geometry of a uniform cell grid without its contents:
// the covered bounds, the cell side and the dimensions. Slab and every
// caller that places points on a slab's cells do their cell arithmetic
// through it — which cell holds a point, which rectangle a cell covers,
// which cells lie near a segment — so they agree bit for bit.
type Lattice struct {
	Bounds   geo.Rect
	CellSize float64
	NX, NY   int
}

// NewLattice returns the lattice BuildSlab lays over bounds at
// the given cell size. It refuses a cell size that is not positive and,
// with an error wrapping ErrLattice, a lattice whose cells cannot be
// numbered by a CellID.
func NewLattice(bounds geo.Rect, cellSize float64) (Lattice, error) {
	if !(cellSize > 0) {
		return Lattice{}, fmt.Errorf("grid: non-positive cell size %v", cellSize)
	}
	nx, ny, err := Dims(bounds, cellSize)
	if err != nil {
		return Lattice{}, err
	}
	return Lattice{Bounds: bounds, CellSize: cellSize, NX: nx, NY: ny}, nil
}

// axisIndex converts an offset from the lattice origin along one axis to
// a cell index in [0, n-1]. It saturates in float64 before converting: an
// offset/cellSize quotient beyond the int range (a huge ε, an infinite
// coordinate) makes int(q) wrap to an arbitrary value, which a clamp
// applied afterwards cannot repair. NaN maps to 0.
func axisIndex(offset, cellSize float64, n int) int {
	q := offset / cellSize
	if !(q > 0) {
		return 0
	}
	if q >= float64(n-1) {
		return n - 1
	}
	return int(q)
}

// CellIndex returns the id of the cell containing p, clamped into the
// lattice. It is the one place a point is assigned its cell.
func (l Lattice) CellIndex(p geo.Point) CellID {
	ix := axisIndex(p.X-l.Bounds.MinX, l.CellSize, l.NX)
	iy := axisIndex(p.Y-l.Bounds.MinY, l.CellSize, l.NY)
	return CellID(ix + iy*l.NX)
}

// Cells places objs on the lattice by their locations: it returns the
// non-empty cells, ascending, and for each object the index of its cell
// among them.
func (l Lattice) Cells(objs Objects) (cellIDs, cellOf []int32) {
	n := objs.Len()
	cids := make([]CellID, n)
	for i := range n {
		cids[i] = l.CellIndex(objs.Loc(i))
	}
	cellOf = make([]int32, n)
	for i, m := range sortByCell(cids) {
		if i == 0 || int32(cids[m]) != cellIDs[len(cellIDs)-1] {
			cellIDs = append(cellIDs, int32(cids[m]))
		}
		cellOf[m] = int32(len(cellIDs) - 1)
	}
	return cellIDs, cellOf
}

// CellRect returns the rectangle covered by cell id.
func (l Lattice) CellRect(id CellID) geo.Rect {
	return l.cellRect(int(id)%l.NX, int(id)/l.NX)
}

// cellRect returns the rectangle of the cell in column ix and row iy,
// for callers that walk a row and so know both without a division.
func (l Lattice) cellRect(ix, iy int) geo.Rect {
	minX := l.Bounds.MinX + float64(ix)*l.CellSize
	minY := l.Bounds.MinY + float64(iy)*l.CellSize
	return geo.Rect{MinX: minX, MinY: minY, MaxX: minX + l.CellSize, MaxY: minY + l.CellSize}
}

// span returns the inclusive index ranges of the cells r overlaps,
// clamped into the lattice.
func (l Lattice) span(r geo.Rect) (ix0, ix1, iy0, iy1 int) {
	ix0 = axisIndex(r.MinX-l.Bounds.MinX, l.CellSize, l.NX)
	ix1 = axisIndex(r.MaxX-l.Bounds.MinX, l.CellSize, l.NX)
	iy0 = axisIndex(r.MinY-l.Bounds.MinY, l.CellSize, l.NY)
	iy1 = axisIndex(r.MaxY-l.Bounds.MinY, l.CellSize, l.NY)
	return
}

// rowStart returns the index in cellIDs — cell ids sorted ascending — of
// the first id at or above first. Every id before from must lie below
// first: from is 0, or where the caller left the row before. The ids are
// distinct integers, so at most first-cellIDs[from] of them precede the
// answer; that bounds it from above, and a galloping search down from
// the bound finds it in one or two probes when the cells in between are
// all non-empty, as they are in a dense city. From 0 the search starts
// where the ids would put first were they spread evenly over their
// range, which a city's cells nearly are.
func rowStart(cellIDs []int32, from int, first int32) int {
	n := len(cellIDs)
	if from == 0 && n > 0 {
		g := int(int64(first-cellIDs[0]) * int64(n) / (int64(cellIDs[n-1]-cellIDs[0]) + 1))
		g = min(max(g, 0), n-1)
		if cellIDs[g] >= first {
			return gallopDown(cellIDs, 0, g, first)
		}
		from = g + 1
	}
	if from >= n {
		return n
	}
	return gallopDown(cellIDs, from, min(from+max(0, int(first-cellIDs[from])), n), first)
}

// gallopDown returns the index of the first id at or above first in
// cellIDs, known to lie in [from, hi]: it steps down from hi by doubling
// strides, then binary-searches the last stride.
func gallopDown(cellIDs []int32, from, hi int, first int32) int {
	n := 1
	for hi-n >= from && cellIDs[hi-n] >= first {
		hi -= n
		n *= 2
	}
	lo := max(from, hi-n+1)
	at, _ := slices.BinarySearch(cellIDs[lo:hi], first)
	return lo + at
}

// MarkNearSegment sets near[i] for every cell cellIDs[i] whose rectangle
// lies within distance eps of seg and returns how many it newly set.
// cellIDs must be sorted ascending; cells already set are not tested
// again. The predicate is the one Slab.CellsNearSegmentInto applies, so
// marking a slab's CellIDs for a segment at eps ≥ ε sets every cell of
// that segment's Cε(ℓ).
func (l Lattice) MarkNearSegment(cellIDs []int32, seg geo.Segment, eps float64, near []bool) (added int) {
	test := newNearTest(seg, eps)
	ix0, ix1, iy0, iy1 := l.span(seg.Bounds().Expand(eps))
	i := 0
	for iy := iy0; iy <= iy1; iy++ {
		row := iy * l.NX
		for i = rowStart(cellIDs, i, int32(row+ix0)); i < len(cellIDs) && int(cellIDs[i]) <= row+ix1; i++ {
			if !near[i] && test.cell(l.cellRect(int(cellIDs[i])-row, iy)) {
				near[i] = true
				added++
			}
		}
	}
	return added
}

// nearMargin is the relative distance from ε² within which a squared
// distance does not decide nearTest on its own. Computed squares and
// math.Hypot are each within a few ulps (≈ 1e-15 relative) of the true
// values, so outside the margin both sides of ε agree.
const nearMargin = 1e-9

// nearTest decides r.DistToSegment(seg) <= eps for the cells of one
// segment without the reference's sixteen math.Hypot calls and doubled
// intersection tests. The reference is 0 when an endpoint of seg lies in
// r or seg crosses an edge, else the least of twelve distinct
// point–segment distances: the four corners to seg and each endpoint of
// seg to the four edges (a corner is shared by two edges and an edge's
// own intersection test is repeated inside Segment.DistToSegment). Each
// edge's minimum starts from its first corner's distance and a NaN there
// is never replaced, so the reference drops that edge's endpoint
// distances; any other NaN is simply never less. With eps > 0 the
// minimum is at most eps exactly when one of the distances it keeps is,
// so cell tests the same containment and intersections once each, skips
// an edge's endpoints behind a NaN corner, and compares every distance
// squared against eps². The operands of each square are the very
// differences the reference passes to math.Hypot, so only the final
// comparison differs; where the square falls within nearMargin of eps²
// it is settled by that math.Hypot comparison. An eps outside
// [1e-150, 1e150] — zero, negative, NaN or so large or small that
// squares overflow or lose their precision — goes to the reference
// itself.
type nearTest struct {
	seg    geo.Segment
	eps    float64
	lo, hi float64 // eps² shrunk and grown by nearMargin
	ref    bool    // decide by Rect.DistToSegment
}

func newNearTest(seg geo.Segment, eps float64) nearTest {
	epsSq := eps * eps
	return nearTest{
		seg: seg, eps: eps,
		lo: epsSq * (1 - nearMargin), hi: epsSq * (1 + nearMargin),
		ref: !(eps >= 1e-150 && eps <= 1e150),
	}
}

// cell reports whether r lies within eps of the segment: exactly
// r.DistToSegment(seg) <= eps.
func (t *nearTest) cell(r geo.Rect) bool {
	s := t.seg
	if t.ref {
		return r.DistToSegment(s) <= t.eps
	}
	if r.Contains(s.A) || r.Contains(s.B) {
		return true
	}
	// The corners in Rect.Edges order; edge i runs from corner i to i+1.
	c := [5]geo.Point{{X: r.MinX, Y: r.MinY}, {X: r.MaxX, Y: r.MinY}, {X: r.MaxX, Y: r.MaxY}, {X: r.MinX, Y: r.MaxY}, {X: r.MinX, Y: r.MinY}}
	for i := 0; i < 4; i++ {
		near, nan := t.within(c[i], s.ClosestPoint(c[i]))
		if near {
			return true
		}
		if nan {
			continue
		}
		e := geo.Segment{A: c[i], B: c[i+1]}
		if near, _ := t.within(s.A, e.ClosestPoint(s.A)); near {
			return true
		}
		if near, _ := t.within(s.B, e.ClosestPoint(s.B)); near {
			return true
		}
	}
	for i := 0; i < 4; i++ {
		if s.Intersects(geo.Segment{A: c[i], B: c[i+1]}) {
			return true
		}
	}
	return false
}

// within reports whether the distance from p to its closest point c, as
// geo.Point.Dist computes it, is at most eps, and whether it is NaN. A NaN
// square falls through both comparisons to math.Hypot.
func (t *nearTest) within(p, c geo.Point) (near, nan bool) {
	dx, dy := p.X-c.X, p.Y-c.Y
	sq := dx*dx + dy*dy
	if sq < t.lo {
		return true, false
	}
	if sq > t.hi {
		return false, false
	}
	d := math.Hypot(dx, dy)
	return d <= t.eps, math.IsNaN(d)
}
