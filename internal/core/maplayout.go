package core

import (
	"runtime"
	"sync"

	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// mapLayout is the map-based form of the Section 3.2.1 structures: the
// POI grid with per-cell inverted indexes, the weighted global inverted
// index, the per-cell total weights and the ε-augmented cell↔segment
// memos. The baseline, the round-robin ablation, the accessor methods
// and dynamic insertion read it; the slab path never does.
//
// An index built by NewIndex owns its layout from construction. A
// slab-backed index opened by NewIndexFromSlab has none until something
// asks: Index.maps builds it from the slab on first touch, exactly once.
// Reach the fields only through that accessor.
type mapLayout struct {
	grid *grid.Grid

	// inv is the weighted global inverted index: keyword → cells sorted
	// decreasingly by relevant POI weight.
	inv map[vocab.ID]*kwPostings
	// cellWeight is the total POI weight per non-empty cell (|Pc| in the
	// unweighted setting).
	cellWeight map[grid.CellID]float64

	// mu guards the ε-memo maps below and the lazily rebuilt postings
	// entries; the read paths take the read lock only, so concurrent
	// queries over distinct or warmed ε values do not serialize.
	mu       sync.RWMutex
	segCells map[float64][][]grid.CellID // ε → per-segment Cε(ℓ)
	cellSegs map[float64]map[grid.CellID][]network.SegmentID
	sl2      map[float64][]network.SegmentID // ε → segments desc by |Cε(ℓ)|
}

// newMapLayout returns a layout over g with empty indexes and memos.
func newMapLayout(g *grid.Grid, vocabHint, cellHint int) *mapLayout {
	m := &mapLayout{
		grid:       g,
		inv:        make(map[vocab.ID]*kwPostings, vocabHint),
		cellWeight: make(map[grid.CellID]float64, cellHint),
	}
	m.dropMemos()
	return m
}

// dropMemos empties every ε-dependent memo; the caller holds mu or owns
// the layout exclusively.
func (m *mapLayout) dropMemos() {
	m.segCells = make(map[float64][][]grid.CellID)
	m.cellSegs = make(map[float64]map[grid.CellID][]network.SegmentID)
	m.sl2 = make(map[float64][]network.SegmentID)
}

// mapLayoutFromSlab reconstructs the layout from a prebuilt slab without
// re-ingesting the POIs: the grid aliases the slab's arrays, and the
// weighted inverted index and per-cell weights are read straight out of
// the slab's vocab-major CSR (already in sortEntries order). The result
// is the layout NewIndex builds over the same data.
func mapLayoutFromSlab(slab *grid.Slab) *mapLayout {
	m := newMapLayout(grid.FromSlab(slab), slab.VocabN, slab.NumCells())
	for ord, cid := range slab.CellIDs {
		m.cellWeight[grid.CellID(cid)] = slab.CellWeight[ord]
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
		m.inv[vocab.ID(kw)] = kp
	}
	return m
}

// maps returns the index's map layout, materialising it from the slab on
// the first call of a slab-opened index. Concurrent first callers build
// it once and all see the same value.
func (ix *Index) maps() *mapLayout {
	if m := ix.layout.Load(); m != nil {
		return m
	}
	ix.layoutOnce.Do(func() {
		ix.layout.Store(mapLayoutFromSlab(ix.slab))
		if ix.rec != nil {
			ix.rec.Core.MapLayoutBuilds.Add(1)
		}
	})
	return ix.layout.Load()
}

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
func (m *mapLayout) buildInverted(pois *poi.Corpus) {
	cells := m.grid.NonEmptyCells()
	workers := runtime.GOMAXPROCS(0)
	if len(cells) < parallelInvThreshold || workers < 2 {
		for _, cid := range cells {
			accumulateCell(pois, cid, m.grid.CellAt(cid), m.inv, m.cellWeight)
		}
		for _, kp := range m.inv {
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
			inv := make(map[vocab.ID]*kwPostings)
			cellWeight := make(map[grid.CellID]float64)
			for _, cid := range cells[lo:hi] {
				accumulateCell(pois, cid, m.grid.CellAt(cid), inv, cellWeight)
			}
			partials[w] = inv
			weights[w] = cellWeight
		}(w, lo, hi)
	}
	wg.Wait()
	for w := range partials {
		for cid, total := range weights[w] {
			m.cellWeight[cid] = total
		}
		for kw, part := range partials[w] {
			kp := m.inv[kw]
			if kp == nil {
				m.inv[kw] = part
				continue
			}
			for cid, wt := range part.weights {
				kp.weights[cid] = wt
			}
		}
	}
	// Materialize the sorted entry lists in parallel: each keyword's
	// postings struct is touched by exactly one worker.
	kps := make([]*kwPostings, 0, len(m.inv))
	for _, kp := range m.inv {
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
func accumulateCell(pois *poi.Corpus, id grid.CellID, c *grid.Cell, inv map[vocab.ID]*kwPostings, cellWeight map[grid.CellID]float64) {
	var total float64
	for _, m := range c.Members {
		total += pois.Get(m).Weight
	}
	cellWeight[id] = total
	for kw, postings := range c.Inv {
		var w float64
		for _, m := range postings {
			w += pois.Get(m).Weight
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

// entriesFor returns a keyword's sorted cell entries. The fast path is a
// read-locked lookup of the materialized list; the write lock is taken
// only to rebuild entries dirtied by dynamic insertions.
func (m *mapLayout) entriesFor(kw vocab.ID) []weightedEntry {
	m.mu.RLock()
	kp := m.inv[kw]
	if kp == nil {
		m.mu.RUnlock()
		return nil
	}
	if !kp.dirty {
		es := kp.sorted
		m.mu.RUnlock()
		return es
	}
	m.mu.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	return kp.entries()
}

// buildSL1 returns the query's source list SL1: cells sorted decreasingly
// by min(|Pc|, Σψ I[ψ][c]) (Algorithm 1 line 2, generalized to POI
// weights). For a single keyword the list is the keyword's inverted entry
// itself, which is already capped and sorted.
func (m *mapLayout) buildSL1(query vocab.Set) []weightedEntry {
	if len(query) == 1 {
		return m.entriesFor(query[0])
	}
	acc := m.accumulateSL1(query)
	out := make([]weightedEntry, 0, len(acc))
	for cell, w := range acc {
		out = append(out, weightedEntry{Cell: cell, Weight: m.capWeight(cell, w)})
	}
	sortEntries(out)
	return out
}

// accumulateSL1 sums each query keyword's cell weights per cell, keyword
// by keyword in query order.
func (m *mapLayout) accumulateSL1(query vocab.Set) map[grid.CellID]float64 {
	acc := make(map[grid.CellID]float64)
	for _, kw := range query {
		for _, e := range m.entriesFor(kw) {
			acc[e.Cell] += e.Weight
		}
	}
	return acc
}

// capWeight caps an accumulated keyword weight at the cell's total POI
// weight: a POI carrying several query keywords counts once.
func (m *mapLayout) capWeight(cell grid.CellID, w float64) float64 {
	if tw := m.cellWeight[cell]; w > tw {
		return tw
	}
	return w
}
