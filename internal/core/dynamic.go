package core

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// This file adds dynamic POI maintenance to the index. The paper's
// motivation is that "the amount of crowdsourced geospatial content on
// the Web is constantly increasing"; the offline structures of Section
// 3.2.1 extend to appends without a rebuild: the new POI lands in its
// grid cell, the affected keywords of the global inverted index are
// re-sorted lazily, and the ε-augmented cell↔segment maps are
// invalidated only when a previously empty cell becomes populated.
//
// In-place mutation is superseded by the epoch-based ingest path
// (internal/ingest): under live traffic, writers append deltas and a
// publisher installs fresh immutable epochs via atomic pointer swap, so
// readers never observe a mutating index. AddPOI remains for offline,
// single-goroutine index maintenance (and as the differential harness's
// incremental-build reference); it is not reachable through the public
// soi API, whose live engines route every write through ingest.

// AddPOI appends a POI to the indexed corpus and updates every index
// structure. The keyword strings are interned into the corpus dictionary.
//
// AddPOI is the one operation outside the Index read-only contract: it
// mutates the grid, corpus and inverted index in place and must be
// externally serialized against every concurrent reader (stop query
// traffic, insert, then resume — or rebuild a fresh Index and swap it
// in). Batch insertions and re-Warm afterwards for best performance.
// New code serving concurrent queries should use internal/ingest
// instead, which publishes copy-on-write epochs and never mutates an
// index under readers.
func (ix *Index) AddPOI(loc geo.Point, keywords []string, weight float64) (poi.ID, error) {
	set := ix.pois.Dict().InternAll(keywords)
	return ix.addPOISet(loc, set, weight)
}

func (ix *Index) addPOISet(loc geo.Point, set vocab.Set, weight float64) (poi.ID, error) {
	// A slab-opened index that never needed its map layout builds it here,
	// from the slab as it stands before the append.
	m := ix.maps()
	if !m.grid.Bounds().Contains(loc) {
		// The grid clamps out-of-bounds objects into border cells, which
		// would silently misplace the POI relative to ε-distance queries.
		return 0, fmt.Errorf("core: POI at %v outside the indexed bounds %v", loc, m.grid.Bounds())
	}
	// The flattened slab no longer reflects the corpus after an append;
	// drop it so queries fall back to the (updated) map structures.
	ix.six = nil

	id := ix.pois.Append(loc, set, weight)
	p := ix.pois.Get(id)

	cid := m.grid.CellIndex(loc)
	wasEmpty := m.grid.CellAt(cid) == nil
	if err := m.grid.Insert(uint32(id), loc, set); err != nil {
		return 0, err
	}
	m.cellWeight[cid] += p.Weight
	for _, kw := range set {
		kp := m.inv[kw]
		if kp == nil {
			kp = &kwPostings{weights: make(map[grid.CellID]float64)}
			m.inv[kw] = kp
		}
		kp.weights[cid] += p.Weight
		kp.dirty = true
	}
	if wasEmpty {
		// A newly populated cell may now be within ε of segments whose
		// memoized Cε(ℓ) lists were computed without it; drop every
		// ε-dependent memo so the next query rebuilds them.
		m.mu.Lock()
		m.dropMemos()
		m.mu.Unlock()
	}
	return id, nil
}
