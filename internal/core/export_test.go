package core

// MapMemoSizes reports how many ε the map-layout memos (segCells,
// cellSegs, sl2) hold, for tests outside the package that pin which
// paths leave them empty.
func (ix *Index) MapMemoSizes() (segCells, cellSegs, sl2 int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.segCells), len(ix.cellSegs), len(ix.sl2)
}
