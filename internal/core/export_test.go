package core

// PlanCount reports how many ε-plans the index has memoized — the only
// ε-dependent state it holds — for tests outside the package.
func (ix *Index) PlanCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.plans)
}

// BitEqualResults is bitEqualResults for tests outside the package.
func BitEqualResults(a, b []StreetResult) bool { return bitEqualResults(a, b) }

// BruteBound is bruteBound for tests outside the package.
func BruteBound(ix *Index, q Query) float64 {
	b, _ := bruteBound(ix, q)
	return b
}

// InterestLimit is the interest memo's cap in entries.
func (ix *Index) InterestLimit() int { return int(ix.interestLimit()) }

// ResetInterestMemo drops the interest memo as a full one is dropped.
func (ix *Index) ResetInterestMemo() { ix.resetInterests(ix.interestGen()) }

// RaceEnabled is raceEnabled for tests outside the package.
const RaceEnabled = raceEnabled
