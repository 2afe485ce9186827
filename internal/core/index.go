package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// IndexConfig controls offline index construction.
type IndexConfig struct {
	// CellSize is the grid cell side length; must be positive. The paper
	// leaves the cell size arbitrary; a size close to the query ε keeps
	// the ε-augmented maps small.
	CellSize float64
	// Compact additionally flattens the grid into a struct-of-arrays slab
	// (grid.Slab) and routes cost-aware SOI evaluations through the
	// allocation-free slab path. Results are bit-identical either way;
	// only the evaluation machinery differs. Dynamic insertions (AddPOI)
	// drop the slab and fall back to the map path.
	Compact bool
	// Bounds, when non-zero, fixes the grid extent instead of deriving it
	// from the network and corpus. Spatial sharding (internal/shard) sets
	// it to the unpartitioned world's bounds so that every shard index
	// uses the exact global cell lattice: identical cell ids, identical
	// Cε(ℓ) cell orders, and therefore bit-identical mass folds. Objects
	// outside the given bounds are clamped into border cells by the grid.
	Bounds geo.Rect
}

// weightedEntry is one entry of the weighted global inverted index: the
// total weight of POIs in Cell carrying a keyword.
type weightedEntry struct {
	Cell   grid.CellID
	Weight float64
}

// kwPostings holds one keyword's cell weights, with the sorted entry list
// rebuilt lazily after dynamic POI insertions dirty it.
type kwPostings struct {
	weights map[grid.CellID]float64
	sorted  []weightedEntry
	dirty   bool
}

// entries returns the keyword's cells sorted decreasingly by relevant
// weight, rebuilding after insertions.
func (kp *kwPostings) entries() []weightedEntry {
	if kp.dirty {
		kp.sorted = kp.sorted[:0]
		for cell, w := range kp.weights {
			kp.sorted = append(kp.sorted, weightedEntry{Cell: cell, Weight: w})
		}
		sortEntries(kp.sorted)
		kp.dirty = false
	}
	return kp.sorted
}

// sortEntries orders entries decreasingly by weight, ties by cell id.
func sortEntries(es []weightedEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Weight != es[j].Weight {
			return es[i].Weight > es[j].Weight
		}
		return es[i].Cell < es[j].Cell
	})
}

// Index is the offline data structure set of Section 3.2.1: a spatial grid
// over the POIs with per-cell inverted indexes, a global inverted index
// from keywords to cells, and the cell↔segment maps. Segment lists
// augmented by a query distance ε are computed on first use and memoized
// per ε.
//
// Read-only contract: once built, an Index is immutable from the point of
// view of query evaluation and safe for any number of concurrent readers
// (SOI, Baseline, the accessor methods, and the ε-memo getters, which
// guard their caches internally). All per-run mutable state lives in
// soiRun, allocated fresh per evaluation. The only mutating operation is
// AddPOI, which must be externally serialized against all readers; see
// dynamic.go.
type Index struct {
	net  *network.Network
	pois *poi.Corpus
	grid *grid.Grid

	// inv is the weighted global inverted index: keyword → cells sorted
	// decreasingly by relevant POI weight.
	inv map[vocab.ID]*kwPostings
	// cellWeight is the total POI weight per non-empty cell (|Pc| in the
	// unweighted setting).
	cellWeight map[grid.CellID]float64

	// segsByLen lists segment ids sorted increasingly by length (the
	// query-independent source list SL3).
	segsByLen []network.SegmentID

	// mu guards the ε-memo maps below and the lazily rebuilt postings
	// entries; the read paths take the read lock only, so concurrent
	// queries over distinct or warmed ε values do not serialize.
	mu       sync.RWMutex
	segCells map[float64][][]grid.CellID // ε → per-segment Cε(ℓ)
	cellSegs map[float64]map[grid.CellID][]network.SegmentID
	sl2      map[float64][]network.SegmentID // ε → segments desc by |Cε(ℓ)|

	// six, when non-nil, is the compact slab evaluator cost-aware SOI
	// queries route through (IndexConfig.Compact or NewIndexFromSlab).
	// AddPOI sets it to nil, falling back to the map path.
	six *SlabIndex
}

// NewIndex builds the offline index over a network and POI corpus.
func NewIndex(net *network.Network, pois *poi.Corpus, cfg IndexConfig) (*Index, error) {
	if cfg.CellSize <= 0 {
		return nil, fmt.Errorf("core: non-positive cell size %v", cfg.CellSize)
	}
	all := pois.All()
	pts := make([]geo.Point, len(all))
	keys := make([]vocab.Set, len(all))
	for i := range all {
		pts[i] = all[i].Loc
		keys[i] = all[i].Keywords
	}
	bounds, err := deriveBounds(net, pts, cfg)
	if err != nil {
		return nil, err
	}
	g, err := grid.Build(grid.Config{CellSize: cfg.CellSize, Bounds: bounds}, pts, keys)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		net:        net,
		pois:       pois,
		grid:       g,
		inv:        make(map[vocab.ID]*kwPostings),
		cellWeight: make(map[grid.CellID]float64),
		segCells:   make(map[float64][][]grid.CellID),
		cellSegs:   make(map[float64]map[grid.CellID][]network.SegmentID),
		sl2:        make(map[float64][]network.SegmentID),
	}
	ix.buildInverted()
	// SL3: segments by increasing length, ties by id.
	segs := net.Segments()
	ix.segsByLen = make([]network.SegmentID, len(segs))
	for i := range segs {
		ix.segsByLen[i] = segs[i].ID
	}
	sort.Slice(ix.segsByLen, func(i, j int) bool {
		a, b := net.Segment(ix.segsByLen[i]), net.Segment(ix.segsByLen[j])
		if a.Length() != b.Length() {
			return a.Length() < b.Length()
		}
		return a.ID < b.ID
	})
	if cfg.Compact {
		weights := make([]float64, len(all))
		for i := range all {
			weights[i] = all[i].Weight
		}
		slab, err := grid.NewSlab(g, pts, weights)
		if err != nil {
			return nil, err
		}
		ix.six, err = NewSlabIndexFromSlab(net, pois, slab)
		if err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// NewIndexFromSlab reconstructs a full index from a prebuilt slab (for
// example, one loaded from a snapshot) without re-ingesting the POIs: the
// map-layout grid aliases the slab's arrays, the weighted inverted index
// and per-cell weights are read straight out of the slab's vocab-major
// CSR (already in sortEntries order), and cost-aware SOI evaluations
// route through the slab path. The resulting index answers every query
// bit-identically to NewIndex over the same data with Compact set.
func NewIndexFromSlab(net *network.Network, pois *poi.Corpus, slab *grid.Slab) (*Index, error) {
	six, err := NewSlabIndexFromSlab(net, pois, slab)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		net:        net,
		pois:       pois,
		grid:       grid.FromSlab(slab),
		inv:        make(map[vocab.ID]*kwPostings, slab.VocabN),
		cellWeight: make(map[grid.CellID]float64, slab.NumCells()),
		segCells:   make(map[float64][][]grid.CellID),
		cellSegs:   make(map[float64]map[grid.CellID][]network.SegmentID),
		sl2:        make(map[float64][]network.SegmentID),
		six:        six,
	}
	for ord, cid := range slab.CellIDs {
		ix.cellWeight[grid.CellID(cid)] = slab.CellWeight[ord]
	}
	for kw := 0; kw < slab.VocabN; kw++ {
		lo, hi := slab.InvOff[kw], slab.InvOff[kw+1]
		if lo == hi {
			continue
		}
		kp := &kwPostings{
			weights: make(map[grid.CellID]float64, hi-lo),
			sorted:  make([]weightedEntry, 0, hi-lo),
		}
		// The slab's entries are sorted decreasingly by weight, ties by
		// ascending ordinal — exactly the sortEntries order, since cell
		// ordinals are cell-id order.
		for j := lo; j < hi; j++ {
			cid := grid.CellID(slab.CellIDs[slab.InvCell[j]])
			kp.weights[cid] = slab.InvWeight[j]
			kp.sorted = append(kp.sorted, weightedEntry{Cell: cid, Weight: slab.InvWeight[j]})
		}
		ix.inv[vocab.ID(kw)] = kp
	}
	segs := net.Segments()
	ix.segsByLen = make([]network.SegmentID, len(segs))
	for i := range segs {
		ix.segsByLen[i] = segs[i].ID
	}
	sort.Slice(ix.segsByLen, func(i, j int) bool {
		a, b := net.Segment(ix.segsByLen[i]), net.Segment(ix.segsByLen[j])
		if a.Length() != b.Length() {
			return a.Length() < b.Length()
		}
		return a.ID < b.ID
	})
	return ix, nil
}

// SlabIndex returns the compact slab evaluator attached to this index, or
// nil when the index was built without Compact (or invalidated by AddPOI).
func (ix *Index) SlabIndex() *SlabIndex { return ix.six }

// parallelInvThreshold is the non-empty-cell count below which the
// sharded inverted-index build is not worth the goroutine overhead.
const parallelInvThreshold = 512

// buildInverted derives the weighted global inverted index and the
// per-cell total weights from the grid, sharding the per-cell work across
// GOMAXPROCS workers for large grids. Each worker owns a disjoint chunk
// of cells and accumulates private maps; the merge assigns disjoint
// (keyword, cell) entries, so the result is identical to a sequential
// build. The sorted entry lists are materialized before returning so a
// freshly built index is immediately safe for concurrent queries.
func (ix *Index) buildInverted() {
	cells := ix.grid.NonEmptyCells()
	workers := runtime.GOMAXPROCS(0)
	if len(cells) < parallelInvThreshold || workers < 2 {
		for _, cid := range cells {
			ix.accumulateCell(cid, ix.grid.CellAt(cid), ix.inv)
		}
		for _, kp := range ix.inv {
			kp.entries()
		}
		return
	}
	partials := make([]map[vocab.ID]*kwPostings, workers)
	weights := make([]map[grid.CellID]float64, workers)
	var wg sync.WaitGroup
	chunk := (len(cells) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if lo >= len(cells) {
			break
		}
		if hi > len(cells) {
			hi = len(cells)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sub := &Index{pois: ix.pois, cellWeight: make(map[grid.CellID]float64)}
			inv := make(map[vocab.ID]*kwPostings)
			for _, cid := range cells[lo:hi] {
				sub.accumulateCell(cid, ix.grid.CellAt(cid), inv)
			}
			partials[w] = inv
			weights[w] = sub.cellWeight
		}(w, lo, hi)
	}
	wg.Wait()
	for w := range partials {
		for cid, total := range weights[w] {
			ix.cellWeight[cid] = total
		}
		for kw, part := range partials[w] {
			kp := ix.inv[kw]
			if kp == nil {
				ix.inv[kw] = part
				continue
			}
			for cid, wt := range part.weights {
				kp.weights[cid] = wt
			}
		}
	}
	// Materialize the sorted entry lists in parallel: each keyword's
	// postings struct is touched by exactly one worker.
	kps := make([]*kwPostings, 0, len(ix.inv))
	for _, kp := range ix.inv {
		kp.dirty = true
		kps = append(kps, kp)
	}
	chunk = (len(kps) + workers - 1) / workers
	for lo := 0; lo < len(kps); lo += chunk {
		hi := lo + chunk
		if hi > len(kps) {
			hi = len(kps)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for _, kp := range kps[lo:hi] {
				kp.entries()
			}
		}(lo, hi)
	}
	wg.Wait()
}

// accumulateCell folds one cell's members into the total-weight map and
// its postings into the given inverted index.
func (ix *Index) accumulateCell(id grid.CellID, c *grid.Cell, inv map[vocab.ID]*kwPostings) {
	var total float64
	for _, m := range c.Members {
		total += ix.pois.Get(m).Weight
	}
	ix.cellWeight[id] = total
	for kw, postings := range c.Inv {
		var w float64
		for _, m := range postings {
			w += ix.pois.Get(m).Weight
		}
		kp := inv[kw]
		if kp == nil {
			kp = &kwPostings{weights: make(map[grid.CellID]float64)}
			inv[kw] = kp
		}
		kp.weights[id] = w
		kp.dirty = true
	}
}

// Network returns the indexed road network.
func (ix *Index) Network() *network.Network { return ix.net }

// POIs returns the indexed POI corpus.
func (ix *Index) POIs() *poi.Corpus { return ix.pois }

// Grid returns the underlying POI grid.
func (ix *Index) Grid() *grid.Grid { return ix.grid }

// SegmentCells returns the ε-augmented segment-to-cell map: for every
// segment, the non-empty grid cells within distance eps. The result is
// memoized per eps; callers must not modify it. Concurrent callers may
// race to build the map for a fresh eps; each computes an identical value
// and the last store wins, so every returned map is valid.
func (ix *Index) SegmentCells(eps float64) [][]grid.CellID {
	ix.mu.RLock()
	sc, ok := ix.segCells[eps]
	ix.mu.RUnlock()
	if ok {
		return sc
	}
	segs := ix.net.Segments()
	sc = make([][]grid.CellID, len(segs))
	for i := range segs {
		sc[i] = ix.grid.CellsNearSegment(segs[i].Geom, eps)
	}
	ix.mu.Lock()
	ix.segCells[eps] = sc
	ix.mu.Unlock()
	return sc
}

// CellSegments returns the ε-augmented cell-to-segment map Lε: for every
// non-empty cell, the segments within distance eps. Memoized per eps;
// callers must not modify it.
func (ix *Index) CellSegments(eps float64) map[grid.CellID][]network.SegmentID {
	ix.mu.RLock()
	cs, ok := ix.cellSegs[eps]
	ix.mu.RUnlock()
	if ok {
		return cs
	}
	sc := ix.SegmentCells(eps)
	cs = make(map[grid.CellID][]network.SegmentID)
	for sid, cells := range sc {
		for _, c := range cells {
			cs[c] = append(cs[c], network.SegmentID(sid))
		}
	}
	ix.mu.Lock()
	ix.cellSegs[eps] = cs
	ix.mu.Unlock()
	return cs
}

// SegmentsByCellCount returns the segments sorted decreasingly by the
// number of ε-near cells (the SOI source list SL2). Like the cell↔segment
// maps, it depends only on ε and is memoized; the paper treats these maps
// as offline structures augmented once per ε.
func (ix *Index) SegmentsByCellCount(eps float64) []network.SegmentID {
	ix.mu.RLock()
	sl, ok := ix.sl2[eps]
	ix.mu.RUnlock()
	if ok {
		return sl
	}
	sc := ix.SegmentCells(eps)
	sl = make([]network.SegmentID, len(sc))
	for i := range sc {
		sl[i] = network.SegmentID(i)
	}
	sort.Slice(sl, func(i, j int) bool {
		a, b := sl[i], sl[j]
		if len(sc[a]) != len(sc[b]) {
			return len(sc[a]) > len(sc[b])
		}
		return a < b
	})
	ix.mu.Lock()
	ix.sl2[eps] = sl
	ix.mu.Unlock()
	return sl
}

// Warm precomputes every ε-dependent structure (the augmented cell↔segment
// maps and SL2) so that subsequent query timings measure only query work.
func (ix *Index) Warm(eps float64) {
	ix.SegmentCells(eps)
	ix.CellSegments(eps)
	ix.SegmentsByCellCount(eps)
	if ix.six != nil {
		ix.six.Warm(eps)
	}
}

// buildSL1 returns the query's source list SL1: cells sorted decreasingly
// by min(|Pc|, Σψ I[ψ][c]) (Algorithm 1 line 2, generalized to POI
// weights). For a single keyword the list is the keyword's inverted entry
// itself, which is already capped and sorted.
func (ix *Index) buildSL1(query vocab.Set) []weightedEntry {
	if len(query) == 1 {
		return ix.entriesFor(query[0])
	}
	acc := ix.accumulateSL1(query)
	out := make([]weightedEntry, 0, len(acc))
	for cell, w := range acc {
		out = append(out, weightedEntry{Cell: cell, Weight: ix.capWeight(cell, w)})
	}
	sortEntries(out)
	return out
}

// accumulateSL1 sums each query keyword's cell weights per cell, keyword
// by keyword in query order.
func (ix *Index) accumulateSL1(query vocab.Set) map[grid.CellID]float64 {
	acc := make(map[grid.CellID]float64)
	for _, kw := range query {
		for _, e := range ix.entriesFor(kw) {
			acc[e.Cell] += e.Weight
		}
	}
	return acc
}

// capWeight caps an accumulated keyword weight at the cell's total POI
// weight: a POI carrying several query keywords counts once.
func (ix *Index) capWeight(cell grid.CellID, w float64) float64 {
	if tw := ix.cellWeight[cell]; w > tw {
		return tw
	}
	return w
}

// cellMassContribution returns the total weight of POIs in cell c that
// match the query and lie within eps of segment geometry seg. It realizes
// the body of procedure UpdateInterest: the per-keyword postings lists of
// the cell are traversed synchronously (they are sorted by POI id) so each
// matching POI is counted once.
func (ix *Index) cellMassContribution(c *grid.Cell, query vocab.Set, sid network.SegmentID, eps float64) float64 {
	seg := ix.net.Segment(sid).Geom
	epsSq := eps * eps
	var mass float64
	switch len(query) {
	case 0:
		return 0
	case 1:
		for _, m := range c.Inv[query[0]] {
			p := ix.pois.Get(m)
			if seg.DistToPointSq(p.Loc) <= epsSq {
				mass += p.Weight
			}
		}
		return mass
	}
	// Synchronous traversal of the sorted postings lists: repeatedly take
	// the smallest id across list heads, skipping duplicates.
	lists := make([][]uint32, 0, len(query))
	for _, kw := range query {
		if ps := c.Inv[kw]; len(ps) > 0 {
			lists = append(lists, ps)
		}
	}
	const sentinel = ^uint32(0)
	for {
		minID := sentinel
		for _, l := range lists {
			if len(l) > 0 && l[0] < minID {
				minID = l[0]
			}
		}
		if minID == sentinel {
			break
		}
		for i := range lists {
			if len(lists[i]) > 0 && lists[i][0] == minID {
				lists[i] = lists[i][1:]
			}
		}
		p := ix.pois.Get(minID)
		if seg.DistToPointSq(p.Loc) <= epsSq {
			mass += p.Weight
		}
	}
	return mass
}

// entriesFor returns a keyword's sorted cell entries. The fast path is a
// read-locked lookup of the materialized list; the write lock is taken
// only to rebuild entries dirtied by dynamic insertions.
func (ix *Index) entriesFor(kw vocab.ID) []weightedEntry {
	ix.mu.RLock()
	kp := ix.inv[kw]
	if kp == nil {
		ix.mu.RUnlock()
		return nil
	}
	if !kp.dirty {
		es := kp.sorted
		ix.mu.RUnlock()
		return es
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return kp.entries()
}

// cellMassScan computes the same quantity as cellMassContribution but the
// way the paper's baseline BL does: it "uses only the spatial grid index",
// scanning every POI of the cell and testing the keyword predicate
// directly, without the per-cell inverted indexes. Its cost is therefore
// independent of |Ψ| (the paper notes "the value of |Ψ| has no effect in
// BL").
func (ix *Index) cellMassScan(c *grid.Cell, query vocab.Set, sid network.SegmentID, eps float64) float64 {
	seg := ix.net.Segment(sid).Geom
	epsSq := eps * eps
	var mass float64
	for _, m := range c.Members {
		p := ix.pois.Get(m)
		if p.Keywords.Intersects(query) && seg.DistToPointSq(p.Loc) <= epsSq {
			mass += p.Weight
		}
	}
	return mass
}

// SegmentMass computes the exact relevant mass of a segment (Def. 1) by
// visiting every ε-near cell. A slab-backed index folds it through the
// memoized ε-plan and the slab's postings (SlabIndex.segmentMass), the
// same POIs in the same order, so the map-layout ε-memos are never built
// on the serving path and the value is bit-identical either way.
func (ix *Index) SegmentMass(sid network.SegmentID, query vocab.Set, eps float64) float64 {
	if six := ix.six; six != nil {
		return six.segmentMass(sid, query, eps)
	}
	var mass float64
	for _, cid := range ix.SegmentCells(eps)[sid] {
		mass += ix.cellMassContribution(ix.grid.CellAt(cid), query, sid, eps)
	}
	return mass
}

// SegmentInterest computes the exact interest of a segment (Def. 2).
func (ix *Index) SegmentInterest(sid network.SegmentID, query vocab.Set, eps float64) float64 {
	return Interest(ix.SegmentMass(sid, query, eps), ix.net.Segment(sid).Length(), eps)
}

// CountRelevantInCells returns the number of POIs matching the query, per
// the weighted global inverted index (used by the Table 4 experiment).
func (ix *Index) CountRelevant(query vocab.Set) int {
	return ix.pois.CountRelevant(query)
}
