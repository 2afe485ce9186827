package traj

import (
	"math"

	"repro/internal/geo"
	"repro/internal/network"
)

// vertexGrid buckets the network's vertices into a uniform grid sized
// to about one vertex per cell, so snapping a request coordinate looks
// at the cells around it instead of every vertex of the city. Cell
// (x, y)'s vertices are verts[off[y*nx+x]:off[y*nx+x+1]], ascending.
type vertexGrid struct {
	minX, minY float64
	cell       float64
	nx, ny     int
	off        []uint32
	verts      []network.VertexID
}

// snapRingSlack is the fraction of a cell the ring search concedes to
// rounding in the cell-index arithmetic before it trusts "every vertex
// not yet examined lies farther than r cells": the cell size is floored
// at minCellPerCoord times the largest coordinate, so an index is off by
// far less than this.
const (
	snapRingSlack   = 0.01
	minCellPerCoord = 1e-9
)

func newVertexGrid(net *network.Network) vertexGrid {
	n := net.NumVertices()
	if n == 0 {
		return vertexGrid{}
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for v := 0; v < n; v++ {
		p := net.Vertex(network.VertexID(v))
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	// About one vertex per cell; the max(w, h)/n floor keeps a thin or
	// collinear network from exploding into empty cells (at most 3n+1).
	maxAbs := math.Max(math.Max(math.Abs(minX), math.Abs(maxX)), math.Max(math.Abs(minY), math.Abs(maxY)))
	cell := math.Max(math.Sqrt(w*h/float64(n)), math.Max(w, h)/float64(n))
	cell = math.Max(cell, minCellPerCoord*maxAbs)
	vg := vertexGrid{minX: minX, minY: minY, cell: cell, nx: 1, ny: 1}
	if cell > 0 && !math.IsInf(cell, 1) {
		vg.nx = int(w/cell) + 1
		vg.ny = int(h/cell) + 1
	}
	vg.off = make([]uint32, vg.nx*vg.ny+1)
	for v := 0; v < n; v++ {
		vg.off[vg.cellOf(net.Vertex(network.VertexID(v)))+1]++
	}
	for i := 1; i < len(vg.off); i++ {
		vg.off[i] += vg.off[i-1]
	}
	vg.verts = make([]network.VertexID, n)
	next := append([]uint32(nil), vg.off[:len(vg.off)-1]...)
	for v := 0; v < n; v++ {
		c := vg.cellOf(net.Vertex(network.VertexID(v)))
		vg.verts[next[c]] = network.VertexID(v)
		next[c]++
	}
	return vg
}

// axisCell converts an offset from the grid origin to a cell index,
// clamped into [0, n): a point outside the grid belongs to the border
// cell nearest to it.
func (vg *vertexGrid) axisCell(d float64, n int) int {
	c := d / vg.cell
	switch {
	case !(c > 0): // negative, zero-cell (0/0) and NaN
		return 0
	case c >= float64(n):
		return n - 1
	}
	return int(c)
}

func (vg *vertexGrid) cellOf(p geo.Point) int {
	return vg.axisCell(p.Y-vg.minY, vg.ny)*vg.nx + vg.axisCell(p.X-vg.minX, vg.nx)
}

// SnapVertex snaps a free point to the network vertex nearest to it,
// breaking exact distance ties by the lowest vertex id — the answer of
// NearestVertex's scan over every vertex, found by searching the vertex
// grid ring by ring outwards from the point's cell. After ring r, every
// vertex not yet examined differs from the point by more than r cells
// along some axis (the point's own clamped cell included: clamping only
// moves the point's cell toward the grid), so the search stops once the
// best squared distance is within (r − snapRingSlack)² cells. The
// boolean is false only for an empty network.
func (g *Graph) SnapVertex(p geo.Point) (network.VertexID, bool) {
	vg := &g.snap
	if len(vg.verts) == 0 {
		return 0, false
	}
	if math.IsNaN(p.X+p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		// Every comparison against a non-finite distance is decided by
		// the scan's order; leave such points to the reference.
		return NearestVertex(g.net, p)
	}
	cx := vg.axisCell(p.X-vg.minX, vg.nx)
	cy := vg.axisCell(p.Y-vg.minY, vg.ny)
	// No vertex carries the sentinel id, so the first one examined wins
	// even at an overflowed (+Inf) distance, as in the linear scan.
	best, bestD := network.VertexID(math.MaxUint32), math.Inf(1)
	scan := func(x, y int) {
		c := y*vg.nx + x
		for _, v := range vg.verts[vg.off[c]:vg.off[c+1]] {
			if d := p.DistSq(g.net.Vertex(v)); d < bestD || (d == bestD && v < best) {
				best, bestD = v, d
			}
		}
	}
	for r := 0; ; r++ {
		x0, x1 := cx-r, cx+r
		y0, y1 := cy-r, cy+r
		if x0 < 0 && y0 < 0 && x1 >= vg.nx && y1 >= vg.ny {
			break // the rings have covered the whole grid
		}
		for y := max(y0, 0); y <= min(y1, vg.ny-1); y++ {
			if y == y0 || y == y1 {
				for x := max(x0, 0); x <= min(x1, vg.nx-1); x++ {
					scan(x, y)
				}
				continue
			}
			if x0 >= 0 {
				scan(x0, y)
			}
			if x1 < vg.nx {
				scan(x1, y)
			}
		}
		if lim := (float64(r) - snapRingSlack) * vg.cell; lim > 0 && bestD <= lim*lim {
			break
		}
	}
	return best, true
}
