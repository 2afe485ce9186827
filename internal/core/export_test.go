package core

// MapMemoSizes reports how many ε the map-layout memos (segCells,
// cellSegs, sl2) hold, for tests outside the package that pin which
// paths leave them empty. A layout that was never materialised holds
// none, and asking does not materialise it.
func (ix *Index) MapMemoSizes() (segCells, cellSegs, sl2 int) {
	m := ix.layout.Load()
	if m == nil {
		return 0, 0, 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.segCells), len(m.cellSegs), len(m.sl2)
}

// MapLayoutBuilt reports whether the index holds a map layout: from
// construction for NewIndex without Compact, otherwise only after the
// first map-path call.
func (ix *Index) MapLayoutBuilt() bool { return ix.layout.Load() != nil }

// DetachSlab drops the slab evaluator, as AddPOI does, so tests can drive
// the map leg of a slab-opened index.
func (ix *Index) DetachSlab() { ix.six = nil }

// BitEqualResults is bitEqualResults for tests outside the package.
func BitEqualResults(a, b []StreetResult) bool { return bitEqualResults(a, b) }
