package core

// MapMemoSizes reports how many ε the map-layout memos (segCells,
// cellSegs) hold, for tests outside the package that pin which paths
// leave them empty. A layout that was never materialised holds none, and
// asking does not materialise it.
func (ix *Index) MapMemoSizes() (segCells, cellSegs int) {
	m := ix.layout.Load()
	if m == nil {
		return 0, 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.segCells), len(m.cellSegs)
}

// MapLayoutBuilt reports whether the index holds a map layout, which it
// does only after the first Baseline, Grid or ε-map accessor call.
func (ix *Index) MapLayoutBuilt() bool { return ix.layout.Load() != nil }

// BitEqualResults is bitEqualResults for tests outside the package.
func BitEqualResults(a, b []StreetResult) bool { return bitEqualResults(a, b) }

// BruteBound is bruteBound for tests outside the package.
func BruteBound(ix *Index, q Query) float64 {
	b, _ := bruteBound(ix, q)
	return b
}
