package core

import (
	"sync"

	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/vocab"
)

// mapLayout is the map-based form of the Section 3.2.1 structures: the
// POI grid with per-cell inverted indexes, the weighted global inverted
// index, the per-cell total weights and the ε-augmented cell↔segment
// memos. The baseline, the round-robin ablation, the accessor methods
// and dynamic insertion read it; the slab path never does.
//
// Every index is opened over a slab and has no map layout until
// something asks: Index.maps builds it from the slab on first touch,
// exactly once, and mapLayoutFromSlab is the only way one is made. Reach
// the fields only through that accessor.
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
// the slab's vocab-major CSR (already in sortEntries order).
func mapLayoutFromSlab(slab *grid.Slab) *mapLayout {
	m := &mapLayout{
		grid:       grid.FromSlab(slab),
		inv:        make(map[vocab.ID]*kwPostings, slab.VocabN),
		cellWeight: make(map[grid.CellID]float64, slab.NumCells()),
	}
	m.dropMemos()
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
