package core

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/vocab"
)

// segState tracks the per-segment state of Algorithm 1. A segment is
// unseen until its first UpdateInterest, partial while unvisited cells
// remain, and final once every ε-near cell has been visited. cells is
// the canonical Cε(ℓ) list shared with the index (never mutated);
// visited and contrib run parallel to it. Keeping each cell's
// contribution lets the final mass be folded in canonical cell order, a
// pure function of ⟨segment, Ψ, ε⟩ shareable across runs. Cε(ℓ) holds a
// few dozen cells at most, so a linear scan beats a map.
type segState struct {
	seen      bool
	final     bool
	mass      float64       // mass−(ℓ) accounted so far, in visit order
	cells     []grid.CellID // canonical Cε(ℓ); read-only
	visited   []bool
	contrib   []float64 // per-cell mass contribution, canonical index
	remaining int
}

// visit marks cid visited, returning its canonical index in Cε(ℓ) or -1
// when the cell is unknown or already visited.
func (st *segState) visit(cid grid.CellID) int {
	for i, c := range st.cells {
		if c == cid {
			if st.visited[i] {
				return -1
			}
			st.visited[i] = true
			st.remaining--
			return i
		}
	}
	return -1
}

// relPOI caches the location and weight of one query-relevant POI.
type relPOI struct {
	loc geo.Point
	w   float64
}

// MassCache shares exact segment masses across query evaluations over
// one index. Once every ε-near cell of a segment has been visited, the
// segment's exact mass depends only on ⟨segment, Ψ, ε⟩ — not on k or on
// the algorithm's traversal state — so later runs over the same keyword
// set skip the segment's cell visits entirely. Cached values are the
// bit-exact floats the uncached path computes (final masses fold
// per-cell contributions in canonical Cε(ℓ) order; each contribution
// streams POIs in id order), so results are identical with and without
// the cache. MassCache is safe for concurrent use; it is sharded to keep
// lock contention off the hot path.
//
// The cache grows up to a configured entry budget and then stops
// admitting new entries (existing ones keep serving hits); call Clear
// after mutating the index.
type MassCache struct {
	psiMu sync.Mutex
	psis  map[string]uint32 // canonical resolved keyword set → dense id

	limit  int64
	size   int64 // guarded by psiMu
	finals [massCacheShards]finalShard
}

const massCacheShards = 64

// DefaultMassCacheEntries bounds a MassCache built with size 0: at ~50
// bytes per entry this is on the order of 100 MB, far below the index
// itself for city-scale datasets.
const DefaultMassCacheEntries = 1 << 21

type finalShard struct {
	mu sync.RWMutex
	m  map[finalKey]float64
}

type finalKey struct {
	sid network.SegmentID
	psi uint32
	eps float64
}

// NewMassCache returns a cache bounded to maxEntries contributions (0
// means DefaultMassCacheEntries).
func NewMassCache(maxEntries int) *MassCache {
	if maxEntries <= 0 {
		maxEntries = DefaultMassCacheEntries
	}
	mc := &MassCache{psis: make(map[string]uint32), limit: int64(maxEntries)}
	for i := range mc.finals {
		mc.finals[i].m = make(map[finalKey]float64)
	}
	return mc
}

// Clear drops every cached mass and keyword-set id.
func (mc *MassCache) Clear() {
	for i := range mc.finals {
		s := &mc.finals[i]
		s.mu.Lock()
		s.m = make(map[finalKey]float64)
		s.mu.Unlock()
	}
	mc.psiMu.Lock()
	mc.psis = make(map[string]uint32)
	mc.size = 0
	mc.psiMu.Unlock()
}

// Len returns the number of cached segment masses.
func (mc *MassCache) Len() int {
	var n int
	for i := range mc.finals {
		s := &mc.finals[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// psiID interns a resolved keyword set into a dense id, so that mass keys
// stay small and hash quickly.
func (mc *MassCache) psiID(query vocab.Set) uint32 {
	var b strings.Builder
	for _, id := range query {
		b.WriteByte(byte(id))
		b.WriteByte(byte(id >> 8))
		b.WriteByte(byte(id >> 16))
		b.WriteByte(byte(id >> 24))
	}
	key := b.String()
	mc.psiMu.Lock()
	defer mc.psiMu.Unlock()
	if id, ok := mc.psis[key]; ok {
		return id
	}
	id := uint32(len(mc.psis))
	mc.psis[key] = id
	return id
}

func (mc *MassCache) finalShardFor(k finalKey) *finalShard {
	h := uint64(uint32(k.sid))*0x9e3779b1 ^ uint64(k.psi)<<21
	return &mc.finals[h%massCacheShards]
}

func (mc *MassCache) getFinal(k finalKey) (float64, bool) {
	s := mc.finalShardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

func (mc *MassCache) putFinal(k finalKey, v float64) {
	if !mc.admit() {
		return
	}
	s := mc.finalShardFor(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// admit charges one entry against the budget, reporting whether the
// cache may still grow.
func (mc *MassCache) admit() bool {
	mc.psiMu.Lock()
	defer mc.psiMu.Unlock()
	if mc.size >= mc.limit {
		return false
	}
	mc.size++
	return true
}

// Fault-injection site names of the evaluation path (see internal/faults).
// Unarmed sites cost one atomic load; the chaos test suite arms them to
// wedge, delay or crash an evaluation at a precise point.
const (
	// SiteFilter is visited once per filter-loop iteration.
	SiteFilter = "core.filter"
	// SiteRefine is visited once per refine candidate.
	SiteRefine = "core.refine"
)

// cancelCheckEvery is the checkpoint stride: the filter and refine loops
// poll ctx.Err() every cancelCheckEvery iterations, keeping the hot path
// branch-cheap while bounding cancellation latency to a few dozen
// source-list pops.
const cancelCheckEvery = 32

// soiRun carries the mutable state of one SOI evaluation.
type soiRun struct {
	ix    *Index
	m     *mapLayout // ix.maps(), fetched once per run
	query vocab.Set
	k     int
	eps   float64
	strat Strategy

	// ctx carries the evaluation's cancellation signal; tick strides the
	// cooperative checkpoints.
	ctx  context.Context
	tick int

	// mc, when non-nil, shares per-(segment, cell) mass contributions
	// with other runs over the same index; psi is the query's interned id
	// in the cache.
	mc  *MassCache
	psi uint32

	segCells [][]grid.CellID
	cellSegs map[grid.CellID][]network.SegmentID

	sl1    []weightedEntry     // cells desc by relevant weight
	sl2    []network.SegmentID // segments desc by |Cε(ℓ)|
	sl3    []network.SegmentID // segments asc by length
	p1, p2 int                 // pointers into SL1, SL2
	p3     int                 // pointer into SL3

	states []segState
	seen   []network.SegmentID // ids of seen segments (Lseen membership)
	topk   *streetTopK

	// relCache memoizes the query-relevant POIs of each visited cell: a
	// cell is visited once per ε-near segment, so resolving its postings
	// lists once and replaying locations pays off quickly.
	relCache map[grid.CellID][]relPOI

	stats Stats
}

// Strategy selects the source-list access schedule of the filtering
// phase. The paper states that "the correctness of our method is not
// affected by the access strategy" and describes alternating between SL1
// and SL3 with occasional SL2 accesses; both schedules below terminate
// with the same result set.
type Strategy int

const (
	// CostAware is the default: SL1 drives the search, SL3 is consumed
	// while its head is cheap to finalize, SL2 only while its head is an
	// outlier in neighboring-cell count.
	CostAware Strategy = iota
	// RoundRobin is the literal Algorithm 1 schedule: one access from
	// SL1, then SL2, then SL3, cyclically.
	RoundRobin
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case CostAware:
		return "cost-aware"
	case RoundRobin:
		return "round-robin"
	default:
		return "strategy(?)"
	}
}

// SOI evaluates a k-SOI query with Algorithm 1: it pops cells and
// segments from the three ranked source lists, maintaining the seen
// lower bound LBk and the unseen upper bound UB, stops when LBk ≥ UB,
// and refines the seen segments to extract the k most interesting
// streets. The default cost-aware access strategy is used; see
// SOIWithStrategy for the ablation.
func (ix *Index) SOI(q Query) ([]StreetResult, Stats, error) {
	return ix.SOIWithStrategy(q, CostAware)
}

// SOIWithStrategy is SOI with an explicit source-list access strategy.
func (ix *Index) SOIWithStrategy(q Query, strat Strategy) ([]StreetResult, Stats, error) {
	return ix.SOIWithCache(q, strat, nil)
}

// SOIWithCache is SOIWithStrategy with an optional shared MassCache. A
// nil cache evaluates the query standalone. Because cached contributions
// are the bit-exact values the standalone path computes, the results are
// identical either way; only the work to obtain them is shared.
func (ix *Index) SOIWithCache(q Query, strat Strategy, mc *MassCache) ([]StreetResult, Stats, error) {
	return ix.SOIContext(context.Background(), q, strat, mc)
}

// SOIContext is the full evaluation entry point: SOIWithCache under a
// context. An already-expired context returns its error without touching
// the index; a context cancelled mid-evaluation is observed at a
// cooperative checkpoint inside the filter and refine loops (every
// cancelCheckEvery iterations) and surfaces as the context's error with
// the partial Stats accumulated so far. On the non-cancelled path the
// checkpoints read state only, so results remain bit-identical to an
// uncancellable evaluation.
func (ix *Index) SOIContext(ctx context.Context, q Query, strat Strategy, mc *MassCache) ([]StreetResult, Stats, error) {
	if six := ix.six; six != nil && strat == CostAware {
		// The compact slab path evaluates the same cost-aware schedule
		// allocation-free and returns bit-identical results.
		return six.SOIContext(ctx, q, mc)
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	query, err := ix.resolveQuery(q)
	if err != nil {
		return nil, Stats{}, err
	}
	r := &soiRun{ix: ix, m: ix.maps(), query: query, k: q.K, eps: q.Epsilon, strat: strat, mc: mc, ctx: ctx}
	if mc != nil {
		r.psi = mc.psiID(query)
	}
	r.stats.TotalSegments = ix.net.NumSegments()
	r.stats.TotalCells = r.m.grid.NumCells()

	start := time.Now()
	r.buildLists()
	r.stats.BuildListsTime = time.Since(start)

	start = time.Now()
	err = r.filter()
	r.stats.FilterTime = time.Since(start)
	if err != nil {
		return nil, r.stats, err
	}

	start = time.Now()
	res, err := r.refine()
	r.stats.RefineTime = time.Since(start)
	if err != nil {
		return nil, r.stats, err
	}
	return res, r.stats, nil
}

// checkpoint is one cooperative cancellation poll: the armed-fault site
// fires every visit (one atomic load when unarmed), the context is
// polled every cancelCheckEvery visits. A non-nil return aborts the
// evaluation with that error.
func (r *soiRun) checkpoint(site string) error {
	if err := faults.InjectCtx(r.ctx, site); err != nil {
		return err
	}
	r.tick++
	if r.tick%cancelCheckEvery != 0 {
		return nil
	}
	return r.ctx.Err()
}

// buildLists constructs the three source lists (Algorithm 1 lines 1–7).
// SL3 is query-independent and precomputed by the index; SL1 depends on
// the query keywords and SL2 on ε.
func (r *soiRun) buildLists() {
	ix := r.ix
	r.segCells = ix.SegmentCells(r.eps)
	r.cellSegs = ix.CellSegments(r.eps)
	r.sl1 = r.m.buildSL1(r.query)
	r.sl2 = ix.SegmentsByCellCount(r.eps)
	r.sl3 = ix.segsByLen
	r.states = make([]segState, ix.net.NumSegments())
	r.topk = newStreetTopK(r.k)
	r.relCache = make(map[grid.CellID][]relPOI)
}

// relevantInCell returns the query-relevant POIs of the cell, resolved
// from its postings lists once and cached for the rest of the run.
func (r *soiRun) relevantInCell(cid grid.CellID) []relPOI {
	if rel, ok := r.relCache[cid]; ok {
		return rel
	}
	cell := r.m.grid.CellAt(cid)
	var rel []relPOI
	collect := func(id uint32) {
		p := r.ix.pois.Get(id)
		rel = append(rel, relPOI{loc: p.Loc, w: p.Weight})
	}
	if len(r.query) == 1 {
		for _, id := range cell.Inv[r.query[0]] {
			collect(id)
		}
	} else {
		// Synchronous merge of the sorted postings lists, deduplicating
		// POIs that match several query keywords.
		lists := make([][]uint32, 0, len(r.query))
		for _, kw := range r.query {
			if ps := cell.Inv[kw]; len(ps) > 0 {
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
			collect(minID)
		}
	}
	r.relCache[cid] = rel
	return rel
}

// state returns the segment state, initializing it from Cε(ℓ) on first
// touch. When a shared cache already holds the segment's exact mass for
// this ⟨Ψ, ε⟩, the segment starts out final and its cell visits are
// skipped entirely.
func (r *soiRun) state(sid network.SegmentID) *segState {
	st := &r.states[sid]
	if st.seen {
		return st
	}
	st.seen = true
	r.seen = append(r.seen, sid)
	r.stats.SegmentsSeen++
	cells := r.segCells[sid]
	if len(cells) == 0 {
		st.final = true
		r.stats.SegmentsFinal++
		return st
	}
	if r.mc != nil {
		if m, ok := r.mc.getFinal(finalKey{sid: sid, psi: r.psi, eps: r.eps}); ok {
			st.mass = m
			st.final = true
			r.stats.SegmentsFinal++
			r.stats.SegmentCacheHits++
			if m > 0 {
				seg := r.ix.net.Segment(sid)
				r.topk.Update(seg.Street, Interest(m, seg.Length(), r.eps))
			}
			return st
		}
	}
	st.cells = cells
	st.visited = make([]bool, len(cells))
	st.contrib = make([]float64, len(cells))
	st.remaining = len(cells)
	return st
}

// updateInterest visits cell c for segment sid (procedure UpdateInterest):
// it counts the query-relevant POIs of c within ε of the segment, raises
// mass−(ℓ), and propagates the improved interest lower bound to LBk.
func (r *soiRun) updateInterest(sid network.SegmentID, cid grid.CellID) {
	st := r.state(sid)
	if st.final {
		return
	}
	i := st.visit(cid)
	if i < 0 {
		return // already visited for this segment
	}
	r.applyVisit(sid, st, i, cid)
}

// applyVisit performs the work of one cell visit. The cell's contribution
// is folded into a local sum before being added to the segment mass, so
// the value is a pure function of ⟨segment, cell, Ψ, ε⟩ (POIs stream in
// id order) regardless of the visit order the run uses.
func (r *soiRun) applyVisit(sid network.SegmentID, st *segState, i int, cid grid.CellID) {
	r.stats.CellVisits++
	var contrib float64
	seg := r.ix.net.Segment(sid).Geom
	epsSq := r.eps * r.eps
	for _, p := range r.relevantInCell(cid) {
		if seg.DistToPointSq(p.loc) <= epsSq {
			contrib += p.w
		}
	}
	st.contrib[i] = contrib
	st.mass += contrib
	if st.remaining == 0 {
		r.finalizeMass(sid, st)
	}
	if st.mass > 0 {
		seg := r.ix.net.Segment(sid)
		r.topk.Update(seg.Street, Interest(st.mass, seg.Length(), r.eps))
	}
}

// finalizeMass recomputes the now-exact segment mass as the fold of its
// per-cell contributions in canonical Cε(ℓ) order. The canonical fold
// makes the final mass independent of the visit order this particular
// run happened to use — a pure function of ⟨segment, Ψ, ε⟩ — so it can
// be shared bit-exactly across runs.
func (r *soiRun) finalizeMass(sid network.SegmentID, st *segState) {
	var m float64
	for _, c := range st.contrib {
		m += c
	}
	st.mass = m
	st.final = true
	r.stats.SegmentsFinal++
	if r.mc != nil {
		r.mc.putFinal(finalKey{sid: sid, psi: r.psi, eps: r.eps}, m)
	}
}

// skipFinal advances a segment-list pointer past segments that are
// already final; accessing them again cannot change any bound.
func (r *soiRun) skipFinal(list []network.SegmentID, p int) int {
	for p < len(list) && r.states[list[p]].final {
		p++
	}
	return p
}

// unseenUpperBound computes UB = top(SL1)·top(SL2) / (2ε·top(SL3) + πε²),
// the largest possible interest of any segment not yet encountered
// (Algorithm 1 line 22). An exhausted list makes the bound zero: no
// unseen segment can carry mass (SL1 empty) or exist at all (SL2/SL3
// empty).
func (r *soiRun) unseenUpperBound() float64 {
	r.p2 = r.skipFinal(r.sl2, r.p2)
	r.p3 = r.skipFinal(r.sl3, r.p3)
	if r.p1 >= len(r.sl1) || r.p2 >= len(r.sl2) || r.p3 >= len(r.sl3) {
		return 0
	}
	top1 := r.sl1[r.p1].Weight
	top2 := float64(len(r.segCells[r.sl2[r.p2]]))
	top3 := r.ix.net.Segment(r.sl3[r.p3]).Length()
	return Interest(top1*top2, top3, r.eps)
}

// filter is the main loop of Algorithm 1 (lines 8–24). The paper leaves
// the source access strategy free ("the correctness of our method is not
// affected by the access strategy") and notes that, in practice, it
// alternates between SL1 and SL3 and dips into SL2 only when a few
// segments with a large number of neighboring cells exist. We implement
// that strategy cost-aware: SL1 drives the search; SL3 is consumed while
// its next segment is cheap to finalize (few ε-near cells); SL2 is
// consumed only while its next segment has an outlier cell count.
func (r *soiRun) filter() error {
	if r.strat == RoundRobin {
		return r.filterRoundRobin()
	}
	// avgCells calibrates the SL2 outlier threshold.
	var totalPairs int
	for _, cs := range r.segCells {
		totalPairs += len(cs)
	}
	avgCells := 1.0
	if len(r.segCells) > 0 {
		avgCells = float64(totalPairs) / float64(len(r.segCells))
	}
	monsterCells := int(4 * avgCells)
	cheapCells := int(avgCells / 2)
	if cheapCells < 4 {
		cheapCells = 4
	}
	for {
		// Stop only when every unseen segment is STRICTLY below the seen
		// lower bound (or provably massless). The strict comparison keeps
		// exact ties at the k-th rank inside the seen set, so the result
		// is a pure function of the query even when a shared MassCache
		// changes how fast LBk rises.
		r.stats.FilterIterations++
		if err := r.checkpoint(SiteFilter); err != nil {
			return err
		}
		if ub := r.unseenUpperBound(); ub == 0 || ub < r.topk.Bound() {
			return nil
		}
		if r.p1 >= len(r.sl1) {
			// SL1 exhausted: no unseen segment can have positive mass, so
			// the unseen upper bound is zero and the loop above returns on
			// the next check once the segment lists are advanced.
			return nil
		}
		// SL1 access: pop the cell with the largest relevant weight and
		// update every segment within ε of it.
		cid := r.sl1[r.p1].Cell
		r.p1++
		r.stats.CellAccesses++
		for _, sid := range r.cellSegs[cid] {
			r.updateInterest(sid, cid)
		}
		// SL3 accesses: finalize short segments while cheap; each pop
		// raises top(SL3) and with it the unseen bound's denominator.
		r.p3 = r.skipFinal(r.sl3, r.p3)
		for burst := 0; burst < 4 && r.p3 < len(r.sl3); burst++ {
			sid := r.sl3[r.p3]
			if r.remainingCells(sid) > cheapCells {
				break
			}
			r.stats.SL3Accesses++
			r.finalizeSegment(sid)
			r.p3++
			r.p3 = r.skipFinal(r.sl3, r.p3)
		}
		// SL2 access: finalize a segment only while the head of SL2 is an
		// outlier in neighboring-cell count, shrinking top(SL2).
		r.p2 = r.skipFinal(r.sl2, r.p2)
		if r.p2 < len(r.sl2) && len(r.segCells[r.sl2[r.p2]]) >= monsterCells {
			r.stats.SL2Accesses++
			r.finalizeSegment(r.sl2[r.p2])
			r.p2++
		}
	}
}

// filterRoundRobin is the literal Algorithm 1 schedule: SL1 → SL2 → SL3,
// one access each, cyclically, until LBk ≥ UB. Kept as an ablation of the
// access strategy; it yields the same result set but typically finalizes
// far more segments than the cost-aware schedule.
func (r *soiRun) filterRoundRobin() error {
	src := 0
	for {
		// Strict stop, as in the cost-aware schedule: ties at the k-th
		// rank must be seen before the filter may stop.
		r.stats.FilterIterations++
		if err := r.checkpoint(SiteFilter); err != nil {
			return err
		}
		if ub := r.unseenUpperBound(); ub == 0 || ub < r.topk.Bound() {
			return nil
		}
		switch src {
		case 0:
			if r.p1 < len(r.sl1) {
				cid := r.sl1[r.p1].Cell
				r.p1++
				r.stats.CellAccesses++
				for _, sid := range r.cellSegs[cid] {
					r.updateInterest(sid, cid)
				}
			} else if r.p2 >= len(r.sl2) && r.p3 >= len(r.sl3) {
				return nil // every list exhausted; UB is zero
			}
		case 1:
			r.p2 = r.skipFinal(r.sl2, r.p2)
			if r.p2 < len(r.sl2) {
				r.stats.SL2Accesses++
				r.finalizeSegment(r.sl2[r.p2])
				r.p2++
			}
		default:
			r.p3 = r.skipFinal(r.sl3, r.p3)
			if r.p3 < len(r.sl3) {
				r.stats.SL3Accesses++
				r.finalizeSegment(r.sl3[r.p3])
				r.p3++
			}
		}
		src = (src + 1) % 3
	}
}

// remainingCells returns how many cells a segment still needs to visit to
// become final (all of Cε(ℓ) when unseen).
func (r *soiRun) remainingCells(sid network.SegmentID) int {
	if st := &r.states[sid]; st.seen {
		return st.remaining
	}
	return len(r.segCells[sid])
}

// finalizeSegment visits every remaining ε-near cell of the segment,
// bringing it to the final state with exact interest.
func (r *soiRun) finalizeSegment(sid network.SegmentID) {
	r.stats.SegmentAccesses++
	r.state(sid)
	r.drainSegment(sid)
}

// drainSegment visits every remaining cell of a seen segment.
func (r *soiRun) drainSegment(sid network.SegmentID) {
	st := &r.states[sid]
	for i, c := range st.cells {
		if st.final {
			return
		}
		if st.visited[i] {
			continue
		}
		st.visited[i] = true
		st.remaining--
		r.applyVisit(sid, st, i, c)
	}
}

// refine extracts the k most interesting streets from the seen segments
// (Algorithm 1 lines 25–28), finalizing segments only "as necessary":
// candidates are processed in decreasing order of an interest upper bound
// (accounted mass plus the full relevant weight of every unvisited cell),
// and processing stops once the next candidate's upper bound cannot beat
// the k-th best exact street interest. Streets with zero interest are not
// reported; ties are broken by street id for determinism.
func (r *soiRun) refine() ([]StreetResult, error) {
	// Relevant weight per cell, for the per-segment upper bounds. SL1
	// entries carry exactly min(|Pc|, Σψ I[ψ][c]).
	cellW := make(map[grid.CellID]float64, len(r.sl1))
	for _, e := range r.sl1 {
		cellW[e.Cell] = e.Weight
	}
	type candidate struct {
		sid network.SegmentID
		ub  float64
	}
	cands := make([]candidate, 0, len(r.seen))
	for _, sid := range r.seen {
		st := &r.states[sid]
		pot := st.mass
		for i, c := range st.cells {
			if !st.visited[i] {
				pot += cellW[c]
			}
		}
		if pot <= 0 {
			continue
		}
		cands = append(cands, candidate{
			sid: sid,
			ub:  Interest(pot, r.ix.net.Segment(sid).Length(), r.eps),
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ub != cands[j].ub {
			return cands[i].ub > cands[j].ub
		}
		return cands[i].sid < cands[j].sid
	})

	type best struct {
		interest float64
		seg      network.SegmentID
		mass     float64
	}
	streetBest := make(map[network.StreetID]best)
	exactTopK := newStreetTopK(r.k)
	for _, c := range cands {
		if err := r.checkpoint(SiteRefine); err != nil {
			return nil, err
		}
		// Strictly below the k-th exact interest: the candidate can
		// neither enter nor tie into the top-k. The comparison must be
		// strict so that exact ties at the boundary are always drained —
		// that keeps the reported set a pure function of the query, no
		// matter how much of the search earlier runs short-circuited
		// through a shared MassCache.
		if bound := exactTopK.Bound(); bound > 0 && c.ub < bound {
			break
		}
		st := &r.states[c.sid]
		if !st.final {
			r.stats.RefineDrained++
			r.drainSegment(c.sid)
		}
		if st.mass <= 0 {
			continue
		}
		in := Interest(st.mass, r.ix.net.Segment(c.sid).Length(), r.eps)
		street := r.ix.net.Segment(c.sid).Street
		exactTopK.Update(uint32(street), in)
		cur, ok := streetBest[street]
		if !ok || in > cur.interest || (in == cur.interest && c.sid < cur.seg) {
			streetBest[street] = best{interest: in, seg: c.sid, mass: st.mass}
		}
	}
	out := make([]StreetResult, 0, len(streetBest))
	for street, b := range streetBest {
		out = append(out, StreetResult{
			Street:      street,
			Name:        r.ix.net.Street(street).Name,
			Interest:    b.interest,
			BestSegment: b.seg,
			Mass:        b.mass,
		})
	}
	sortResults(out)
	if len(out) > r.k {
		out = out[:r.k]
	}
	return out, nil
}

// SortResults orders street results canonically: by decreasing interest,
// breaking ties by ascending street id. Every evaluator in this package
// reports results in this order; external reference implementations (the
// brute-force oracle in internal/oracle) use it so that result lists are
// comparable element-wise.
func SortResults(rs []StreetResult) { sortResults(rs) }

// sortResults orders street results by decreasing interest, breaking ties
// by street id.
func sortResults(rs []StreetResult) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Interest != rs[j].Interest {
			return rs[i].Interest > rs[j].Interest
		}
		return rs[i].Street < rs[j].Street
	})
}
