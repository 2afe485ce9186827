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
// spatial-relevance bounds). Grid, Cell, Build and NewSlab below are the
// reference builder: the map-of-cells construction the tests hold
// BuildSlab to, byte for byte.
package grid

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/vocab"
)

// CellID is a linearized cell coordinate: id = ix + iy*nx.
type CellID int32

// Cell holds the members of one non-empty grid cell together with its
// local inverted index and tag-cardinality bounds.
type Cell struct {
	// Members lists object ids in the cell, sorted ascending.
	Members []uint32
	// Inv maps each keyword to the cell members carrying it, sorted
	// ascending by id (the paper's postings lists c.I[ψ]).
	Inv map[vocab.ID][]uint32
	// Keywords is the sorted set of keywords present in the cell (c.Ψ).
	Keywords vocab.Set
	// PsiMin and PsiMax bound the keyword-set cardinality of the cell's
	// members (c.ψmin, c.ψmax in Section 4.2.1).
	PsiMin, PsiMax int
}

// Grid is an immutable uniform grid over a set of objects, as a map of
// cells: the reference form NewSlab flattens. Nothing queries it.
type Grid struct {
	lat   Lattice
	cells map[CellID]*Cell
	n     int
}

// Config controls grid construction.
type Config struct {
	// CellSize is the side length of each square cell; must be positive.
	CellSize float64
	// Bounds is the area to cover. When zero, the bounding rectangle of
	// the objects is used.
	Bounds geo.Rect
}

// Build constructs the reference grid over objects given by parallel
// slices of locations and keyword sets. Objects outside Bounds are clamped
// into the border cells so that no object is lost.
func Build(cfg Config, locs []geo.Point, keys []vocab.Set) (*Grid, error) {
	return build(cfg, locs, keys, runtime.GOMAXPROCS(0))
}

// build is Build with an explicit worker count, so tests can pin the
// sharded ingestion path to arbitrary parallelism and verify the result
// is independent of it.
func build(cfg Config, locs []geo.Point, keys []vocab.Set, workers int) (*Grid, error) {
	lat, err := resolveLattice(cfg, locs, keys)
	if err != nil {
		return nil, err
	}
	g := &Grid{lat: lat, cells: make(map[CellID]*Cell), n: len(locs)}
	if len(locs) < parallelBuildThreshold || workers < 2 {
		g.buildCells(locs, keys, nil, 1, 0)
	} else {
		g.buildCellsParallel(locs, keys, workers)
	}
	return g, nil
}

// ErrLattice is wrapped by the error Build, BuildSlab and Dims return when
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

// resolveLattice validates a build's inputs and fixes its geometry: the
// lattice over the configured bounds (the objects' bounding rectangle
// when zero).
func resolveLattice(cfg Config, locs []geo.Point, keys []vocab.Set) (Lattice, error) {
	if len(keys) != 0 && len(keys) != len(locs) {
		return Lattice{}, fmt.Errorf("grid: %d locations but %d keyword sets", len(locs), len(keys))
	}
	b := cfg.Bounds
	if b == (geo.Rect{}) {
		for i, p := range locs {
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

// parallelBuildThreshold is the object count below which the sharded
// parallel ingestion is not worth the goroutine and re-scan overhead.
const parallelBuildThreshold = 4096

// buildCells ingests every object whose cell id is owned by this shard
// (cid ≡ shard mod shards; shards=1 ingests everything) into g.cells,
// then finalizes the per-cell invariants. Objects are scanned in index
// order, which preserves the sorted-members and sorted-postings
// invariants by appending. cids optionally carries precomputed cell ids.
func (g *Grid) buildCells(locs []geo.Point, keys []vocab.Set, cids []CellID, shards, shard int) {
	for i := range locs {
		var cid CellID
		if cids != nil {
			cid = cids[i]
		} else {
			cid = g.CellIndex(locs[i])
		}
		if shards > 1 && int(cid)%shards != shard {
			continue
		}
		c := g.cells[cid]
		if c == nil {
			c = &Cell{Inv: make(map[vocab.ID][]uint32), PsiMin: math.MaxInt}
			g.cells[cid] = c
		}
		id := uint32(i)
		c.Members = append(c.Members, id)
		var ks vocab.Set
		if len(keys) > 0 {
			ks = keys[i]
		}
		for _, kw := range ks {
			c.Inv[kw] = append(c.Inv[kw], id)
		}
		if n := ks.Len(); n < c.PsiMin {
			c.PsiMin = n
		}
		if n := ks.Len(); n > c.PsiMax {
			c.PsiMax = n
		}
	}
	for _, c := range g.cells {
		finalizeCell(c)
	}
}

// finalizeCell derives a cell's keyword set from its postings and fixes
// the cardinality lower bound of keyword-free cells.
func finalizeCell(c *Cell) {
	ids := make([]vocab.ID, 0, len(c.Inv))
	for kw := range c.Inv {
		ids = append(ids, kw)
	}
	c.Keywords = vocab.NewSet(ids)
	if c.PsiMin == math.MaxInt {
		c.PsiMin = 0
	}
}

// buildCellsParallel shards ingestion across workers. Cell ids are
// precomputed once by chunked parallel scans; then each worker owns the
// cells with id ≡ w (mod workers) and builds them into a private map,
// scanning the shared cid slice in index order. The per-worker maps are
// disjoint by construction, so the final merge is conflict-free, and the
// resulting grid is bit-identical to a sequential build.
func (g *Grid) buildCellsParallel(locs []geo.Point, keys []vocab.Set, workers int) {
	cids := make([]CellID, len(locs))
	var wg sync.WaitGroup
	chunk := (len(locs) + workers - 1) / workers
	for lo := 0; lo < len(locs); lo += chunk {
		hi := lo + chunk
		if hi > len(locs) {
			hi = len(locs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				cids[i] = g.CellIndex(locs[i])
			}
		}(lo, hi)
	}
	wg.Wait()

	shards := make([]map[CellID]*Cell, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sg := &Grid{lat: g.lat, cells: make(map[CellID]*Cell)}
			sg.buildCells(locs, keys, cids, workers, w)
			shards[w] = sg.cells
		}(w)
	}
	wg.Wait()
	for _, shard := range shards {
		for cid, c := range shard {
			g.cells[cid] = c
		}
	}
}

// Len returns the number of indexed objects.
func (g *Grid) Len() int { return g.n }

// Dims returns the grid dimensions (nx, ny).
func (g *Grid) Dims() (int, int) { return g.lat.NX, g.lat.NY }

// CellSize returns the side length of each cell.
func (g *Grid) CellSize() float64 { return g.lat.CellSize }

// Bounds returns the area the grid covers.
func (g *Grid) Bounds() geo.Rect { return g.lat.Bounds }

// CellIndex returns the cell id containing p, clamped into the grid.
func (g *Grid) CellIndex(p geo.Point) CellID { return g.lat.CellIndex(p) }

// CellAt returns the cell with the given id, or nil when empty.
func (g *Grid) CellAt(id CellID) *Cell { return g.cells[id] }

// NonEmptyCells returns the ids of all non-empty cells, sorted ascending
// for deterministic iteration.
func (g *Grid) NonEmptyCells() []CellID {
	out := make([]CellID, 0, len(g.cells))
	for id := range g.cells {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
