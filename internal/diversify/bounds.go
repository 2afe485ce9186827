package diversify

import (
	"repro/internal/grid"
)

// SpatialDivBounds computes Eq. 15–16: the range of the spatial diversity
// between photo i and any photo located in cell ord.
func (c *Context) SpatialDivBounds(ord, i int) (lo, hi float64) {
	r := c.slab.CellRect(grid.CellID(c.slab.CellIDs[ord]))
	p := c.photos[i].Loc
	return r.MinDistToPoint(p) / c.maxD, r.MaxDistToPoint(p) / c.maxD
}

// TextualDivBounds computes Eq. 17–18: the range of the Jaccard tag
// distance between photo i and any photo of cell ord, derived from the
// cell's keyword set c.Ψ and cardinality bounds [ψmin, ψmax].
func (c *Context) TextualDivBounds(ord, i int) (lo, hi float64) {
	keywords := c.cellKeywords(ord)
	psiMin, psiMax := int(c.slab.PsiMin[ord]), int(c.slab.PsiMax[ord])
	tags := c.photos[i].Tags
	nr := tags.Len()
	common := keywords.IntersectCount(tags)
	notCommon := keywords.Len() - common

	// Lower bound (Eq. 17): construct Ψ+(c|r) maximizing overlap with Ψr.
	switch {
	case common < psiMin:
		// All common keywords plus padding from c.Ψ \ Ψr up to ψmin.
		lo = 1 - float64(common)/float64(nr+psiMin-common)
	default:
		m := minInt(common, psiMax)
		if nr == 0 {
			// Both tag sets can be empty: Jaccard distance 0.
			lo = 0
		} else {
			lo = 1 - float64(m)/float64(nr)
		}
	}

	// Upper bound (Eq. 18): construct Ψ−(c|r) minimizing overlap with Ψr.
	if notCommon < psiMin {
		hi = 1 - float64(psiMin-notCommon)/float64(nr+notCommon)
	} else {
		hi = 1
	}
	return lo, hi
}

// cellRelBounds returns the blended relevance bounds of a cell under
// weight w, combining the cached Eq. 11–14 bounds.
func (c *Context) cellRelBounds(ord int, w float64) (lo, hi float64) {
	lo = w*c.cellSpatialLo[ord] + (1-w)*c.cellTextualLo[ord]
	hi = w*c.cellSpatialHi[ord] + (1-w)*c.cellTextualHi[ord]
	return lo, hi
}

// cellDivBounds returns the blended diversity bounds between any photo of
// the cell and the single photo j.
func (c *Context) cellDivBounds(ord, j int, w float64) (lo, hi float64) {
	sLo, sHi := c.SpatialDivBounds(ord, j)
	tLo, tHi := c.TextualDivBounds(ord, j)
	return w*sLo + (1-w)*tLo, w*sHi + (1-w)*tHi
}
