// Package grid implements the spatial index substrate of the paper
// (Sections 3.2.1 and 4.2.1): a uniform grid over a set of located,
// keyword-tagged objects (POIs or photos) where every non-empty cell
// carries a local inverted index from keywords to member postings, plus a
// global inverted index mapping each keyword to the cells that contain it,
// sorted decreasingly by count (the SOI algorithm's source list SL1).
//
// Slab (slab.go) is the one layout anything outside this package reads:
// BuildSlab builds it, and it answers the geometric queries the
// algorithms need — which non-empty cells lie within distance ε of a
// segment (the ε-augmented cell↔segment maps), and which cells fall in a
// (2Δ+1)×(2Δ+1) neighborhood of a given cell (the diversification
// spatial-relevance bounds). The tests hold BuildSlab's bytes to a short
// sequential construction written from the Slab field contracts.
package grid

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geo"
)

// CellID is a linearized cell coordinate: id = ix + iy*nx.
type CellID int32

// Config controls grid construction.
type Config struct {
	// CellSize is the side length of each square cell; must be positive.
	CellSize float64
	// Bounds is the area to cover. When zero, the bounding rectangle of
	// the objects is used.
	Bounds geo.Rect
}

// ErrLattice is wrapped by the error BuildSlab and Dims return when
// the cell lattice over the bounds cannot be addressed by a CellID: nx·ny
// exceeds the int32 range, or a dimension is not finite. Without the check
// the linearized ids wrap and distinct cells silently share one id.
var ErrLattice = errors.New("grid: cell lattice does not fit int32 cell ids")

// Dims returns the lattice dimensions (nx, ny) of a grid with the given
// cell size over bounds, or an error wrapping ErrLattice when its cells
// cannot be numbered by a CellID.
func Dims(bounds geo.Rect, cellSize float64) (nx, ny int, err error) {
	fx := math.Ceil(bounds.Width()/cellSize) + 1
	fy := math.Ceil(bounds.Height()/cellSize) + 1
	// The negated comparison also catches NaN and +Inf.
	if !(fx*fy <= math.MaxInt32) {
		return 0, 0, fmt.Errorf("%w: %g × %g cells of side %g over %v", ErrLattice, fx, fy, cellSize, bounds)
	}
	return int(fx), int(fy), nil
}

// resolveLattice fixes a build's geometry: the lattice over the
// configured bounds (the objects' bounding rectangle when zero).
func resolveLattice(cfg Config, objs Objects) (Lattice, error) {
	b := cfg.Bounds
	if b == (geo.Rect{}) {
		for i := range objs.Len() {
			p := objs.Loc(i)
			r := geo.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
			if i == 0 {
				b = r
			} else {
				b = b.Union(r)
			}
		}
	}
	if !b.IsValid() {
		return Lattice{}, fmt.Errorf("grid: invalid bounds %v", b)
	}
	return NewLattice(b, cfg.CellSize)
}
