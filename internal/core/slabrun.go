package core

import (
	"context"
	"sort"
	"sync"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/vocab"
)

// slabRun is the pooled per-query scratch of an Index evaluation. All
// per-segment, per-cell and per-street state lives in dense arrays
// stamped with a run epoch: a slot belongs to the current run only when
// its stamp equals the epoch, so "clearing" the state between runs is a
// single counter increment. Epoch zero is reserved for never-written
// slots; when the counter wraps, every stamp array is zeroed once.
//
// A segment is unseen until its first updateInterest, partial while
// unvisited cells remain, and final once every ε-near cell has been
// visited. Under CostAware each (segment, cell) pair keeps its own
// contribution, so the final mass is folded in canonical Cε(ℓ) order
// whatever order the run visited the cells in; Drain folds it in that
// order directly (drainSegment).
type slabRun struct {
	ix   *Index
	plan *slabPlan

	epoch uint32

	ctx   context.Context
	query vocab.Set
	k     int
	eps   float64
	strat Strategy
	// tick strides the cooperative cancellation checkpoints.
	tick int

	// SL1: parallel cell-ordinal and weight arrays. For single-keyword
	// queries they alias the slab's inverted index directly.
	sl1Cell []int32
	sl1W    []float64
	// Multi-keyword SL1 scratch: per-ordinal accumulators and the owned
	// buffers the sorted list is built in.
	accW       []float64
	accStamp   []uint32
	accTouched []int32
	sl1CellBuf []int32
	sl1WBuf    []float64
	sl1Sorter  sl1Sorter
	// queryBuf backs the query of a bound-only run: Index.UnseenBound
	// resolves the keywords into it instead of allocating a set.
	queryBuf vocab.Set

	p1, p2, p3 int

	// Per-segment state (sized to the segment count).
	segSeen      []uint32 // stamp: segment left the unseen state
	segFinal     []uint32 // stamp: exact mass known
	segMass      []float64
	segRemaining []int32
	// segBound is a Drain run's refine bound: the SL1 weights of the
	// segment's relevant cells, summed by filterDrain in ascending cell
	// ordinal. Valid where segSeen matches.
	segBound []float64

	// Per-(segment, cell) pair state (sized to len(plan.segCell)), kept by
	// CostAware only: a Drain run visits no cell before refine and folds
	// each drained segment's mass in one pass (drainSegment).
	visited []uint32 // stamp: cell visited for its segment
	contrib []float64

	seen []uint32 // segment ids in first-touch order

	topk  slabTopK // filter-phase LBk
	exact slabTopK // refine-phase exact top-k

	// Per-cell relevant-POI cache: resolved once per visited cell into the
	// shared relX/relY/relW arenas, delimited by [relStart, relEnd).
	relStamp         []uint32
	relStart, relEnd []uint32
	relX, relY, relW []float64
	mergeLo, mergeHi []uint32 // postings-merge list heads (≤ |query|)

	// Refine scratch: per-ordinal relevant weights, the candidate arrays
	// and their heap, and the per-street best-segment table.
	cwVal      []float64
	cwStamp    []uint32
	candSid    []uint32
	candUB     []float64
	candSorter candSorter
	sbStamp    []uint32
	sbInterest []float64
	sbSeg      []uint32
	sbMass     []float64
	sbTouched  []uint32

	stats Stats
}

// runPool is the process-wide pool of slabRun scratch, shared by every
// Index: live epochs, -tenants engines and in-process shards. A run is
// bound to an index only while it is checked out (getRun), and putRun
// drops the binding, so no pooled run keeps an index reachable: a
// retired epoch is garbage once its last reader lets go. Every arena is
// sized per evaluation by the grow helpers and every stamp is compared
// with the run's own epoch, so one run serves indexes of any size in
// turn.
var runPool = sync.Pool{New: func() any { return new(slabRun) }}

// getRun checks a scratch run out of runPool for one evaluation on ix.
func getRun(ix *Index) *slabRun {
	r := runPool.Get().(*slabRun)
	r.ix = ix
	return r
}

// putRun unbinds r from its index and returns it to runPool.
func putRun(r *slabRun) {
	r.ix = nil
	runPool.Put(r)
}

// grow returns a slice of length n, reusing s's storage when it is large
// enough. Fresh storage is zeroed by the runtime, which the stamp arrays
// rely on (epoch zero means never written).
func growU32(s []uint32, n int) []uint32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint32, n)
}

func growI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

func growF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// begin prepares the run for one evaluation over the given plan: bumps
// the epoch, sizes every arena the schedule uses, resets the append
// buffers and builds SL1.
func (r *slabRun) begin(plan *slabPlan) {
	r.plan = plan
	ix := r.ix
	numSegs := len(ix.segLen)
	numCells := ix.slab.NumCells()
	numStreets := ix.net.NumStreets()
	numPairs := len(plan.segCell)

	r.nextEpoch()

	r.segSeen = growU32(r.segSeen, numSegs)
	r.segFinal = growU32(r.segFinal, numSegs)
	r.segMass = growF64(r.segMass, numSegs)
	r.segRemaining = growI32(r.segRemaining, numSegs)
	r.segBound = growF64(r.segBound, numSegs)
	if r.strat != Drain {
		r.visited = growU32(r.visited, numPairs)
		r.contrib = growF64(r.contrib, numPairs)
	}
	r.relStamp = growU32(r.relStamp, numCells)
	r.relStart = growU32(r.relStart, numCells)
	r.relEnd = growU32(r.relEnd, numCells)
	r.accW = growF64(r.accW, numCells)
	r.accStamp = growU32(r.accStamp, numCells)
	r.cwVal = growF64(r.cwVal, numCells)
	r.cwStamp = growU32(r.cwStamp, numCells)
	r.sbStamp = growU32(r.sbStamp, numStreets)
	r.sbInterest = growF64(r.sbInterest, numStreets)
	r.sbSeg = growU32(r.sbSeg, numStreets)
	r.sbMass = growF64(r.sbMass, numStreets)
	r.topk.init(r.k, numStreets)
	r.exact.init(r.k, numStreets)

	r.seen = r.seen[:0]
	r.relX, r.relY, r.relW = r.relX[:0], r.relY[:0], r.relW[:0]
	r.sbTouched = r.sbTouched[:0]
	r.p1, r.p2, r.p3 = 0, 0, 0
	r.tick = 0
	r.stats = Stats{TotalSegments: numSegs, TotalCells: numCells}

	r.buildSL1()
}

// nextEpoch starts a new run epoch, invalidating every stamped slot of
// the previous run at once. When the counter wraps, every stamp array is
// zeroed over its whole capacity — a later run may reslice into storage
// the current one does not cover — so no stale stamp can match a reused
// epoch value.
func (r *slabRun) nextEpoch() {
	r.epoch++
	if r.epoch != 0 {
		return
	}
	r.epoch = 1
	for _, s := range [][]uint32{r.segSeen, r.segFinal, r.visited, r.relStamp,
		r.accStamp, r.cwStamp, r.sbStamp, r.topk.bestStamp, r.topk.inTop,
		r.exact.bestStamp, r.exact.inTop} {
		s = s[:cap(s)]
		for i := range s {
			s[i] = 0
		}
	}
}

// release drops the per-evaluation references so a pooled run does not
// pin the caller's context or query beyond the evaluation.
func (r *slabRun) release() {
	r.ctx = nil
	r.query = nil
	r.plan = nil
	r.sl1Cell = nil
	r.sl1W = nil
}

// buildSL1 builds the query's source list SL1 over the slab's vocab-major
// inverted index: cells sorted decreasingly by min(|Pc|, Σψ I[ψ][c])
// (Algorithm 1 line 2, generalized to POI weights), ties by cell. A
// single-keyword list aliases the slab directly — it is already capped and
// sorted, and no schedule writes to it; a multi-keyword list is the
// accumulated cells (accumulate) with their capped weights (cappedAcc).
// Drain reads SL1 only to file each weight under its cell ordinal
// (filterDrain), so its multi-keyword list is left in accumulation order.
func (r *slabRun) buildSL1() {
	s := r.ix.slab
	if len(r.query) == 1 {
		kw := r.query[0]
		if int(kw) >= s.VocabN {
			r.sl1Cell, r.sl1W = nil, nil
			return
		}
		lo, hi := s.InvOff[kw], s.InvOff[kw+1]
		r.sl1Cell = s.InvCell[lo:hi]
		r.sl1W = s.InvWeight[lo:hi]
		return
	}
	r.accumulate()
	r.sl1CellBuf = r.sl1CellBuf[:0]
	r.sl1WBuf = r.sl1WBuf[:0]
	for _, ord := range r.accTouched {
		r.sl1CellBuf = append(r.sl1CellBuf, ord)
		r.sl1WBuf = append(r.sl1WBuf, r.cappedAcc(ord))
	}
	if r.strat != Drain {
		r.sl1Sorter.cells = r.sl1CellBuf
		r.sl1Sorter.weights = r.sl1WBuf
		sort.Sort(&r.sl1Sorter)
	}
	r.sl1Cell = r.sl1CellBuf
	r.sl1W = r.sl1WBuf
}

// accumulate sums each query keyword's cell weights into the stamped
// per-ordinal accumulators, keyword by keyword in query order, and lists
// the touched ordinals in accTouched. Keywords the slab's vocabulary does
// not cover contribute nothing. accW and accStamp must be sized to the
// cell count and the epoch must be fresh.
func (r *slabRun) accumulate() {
	s := r.ix.slab
	r.accTouched = r.accTouched[:0]
	for _, kw := range r.query {
		if int(kw) >= s.VocabN {
			continue
		}
		for j := s.InvOff[kw]; j < s.InvOff[kw+1]; j++ {
			ord := s.InvCell[j]
			if r.accStamp[ord] != r.epoch {
				r.accStamp[ord] = r.epoch
				r.accW[ord] = 0
				r.accTouched = append(r.accTouched, ord)
			}
			r.accW[ord] += s.InvWeight[j]
		}
	}
}

// cappedAcc returns an accumulated cell's SL1 weight: the keyword sum
// capped at the cell's total POI weight, since a POI carrying several
// query keywords counts once.
func (r *slabRun) cappedAcc(ord int32) float64 {
	w := r.accW[ord]
	if tw := r.ix.slab.CellWeight[ord]; w > tw {
		w = tw
	}
	return w
}

// topSL1 returns the head weight of the query's SL1 — the only part of
// the list the static unseen bound needs — without building the list:
// the head of the pre-sorted inverted range for one keyword, the maximum
// capped accumulator for several. It is the value buildSL1 would place
// first, and 0 when no cell is query-relevant. Only the accumulator
// arrays are sized, so a bound-only run never pays for the per-segment
// and per-pair arenas of a full evaluation.
func (r *slabRun) topSL1() float64 {
	s := r.ix.slab
	if len(r.query) == 1 {
		kw := r.query[0]
		if int(kw) >= s.VocabN || s.InvOff[kw] == s.InvOff[kw+1] {
			return 0
		}
		return s.InvWeight[s.InvOff[kw]]
	}
	r.nextEpoch()
	numCells := s.NumCells()
	r.accW = growF64(r.accW, numCells)
	r.accStamp = growU32(r.accStamp, numCells)
	r.accumulate()
	var top float64
	for _, ord := range r.accTouched {
		// The cap only lowers a weight, so a sum already at or below the
		// running max needs no cap lookup.
		if r.accW[ord] > top {
			if w := r.cappedAcc(ord); w > top {
				top = w
			}
		}
	}
	return top
}

// sl1Sorter orders parallel (cell ordinal, weight) slices decreasingly by
// weight, ties by ascending ordinal (ordinal order is cell-id order).
type sl1Sorter struct {
	cells   []int32
	weights []float64
}

func (s *sl1Sorter) Len() int { return len(s.cells) }
func (s *sl1Sorter) Less(i, j int) bool {
	if s.weights[i] != s.weights[j] {
		return s.weights[i] > s.weights[j]
	}
	return s.cells[i] < s.cells[j]
}
func (s *sl1Sorter) Swap(i, j int) {
	s.cells[i], s.cells[j] = s.cells[j], s.cells[i]
	s.weights[i], s.weights[j] = s.weights[j], s.weights[i]
}

// checkpoint is one cooperative cancellation poll: the armed-fault site
// fires every visit (one atomic load when unarmed), the context is
// polled every cancelCheckEvery visits. A non-nil return aborts the
// evaluation with that error.
func (r *slabRun) checkpoint(site string) error {
	if err := faults.InjectCtx(r.ctx, site); err != nil {
		return err
	}
	r.tick++
	if r.tick%cancelCheckEvery != 0 {
		return nil
	}
	return r.ctx.Err()
}

// segGeom reconstructs a segment's geometry from the flattened arrays.
func (r *slabRun) segGeom(sid uint32) geo.Segment {
	ix := r.ix
	return geo.Segment{
		A: geo.Point{X: ix.segAX[sid], Y: ix.segAY[sid]},
		B: geo.Point{X: ix.segBX[sid], Y: ix.segBY[sid]},
	}
}

// relRange resolves the query-relevant POIs of a cell into the shared
// arenas, once per run: a cell is visited once per ε-near segment, so
// resolving its postings once and replaying locations pays off quickly.
// The POIs appear in ascending id order: single-keyword postings are
// already sorted, and the multi-keyword path merges the sorted postings
// ranges synchronously, deduplicating POIs that match several keywords.
func (r *slabRun) relRange(ord int32) (uint32, uint32) {
	if r.relStamp[ord] == r.epoch {
		return r.relStart[ord], r.relEnd[ord]
	}
	r.relStamp[ord] = r.epoch
	lo := uint32(len(r.relX))
	s := r.ix.slab
	kwLo, kwHi := s.KwOff[ord], s.KwOff[ord+1]
	if len(r.query) == 1 {
		if j := findKw(s.CellKw[kwLo:kwHi], r.query[0]); j >= 0 {
			pj := kwLo + uint32(j)
			r.appendRel(s.Postings[s.PostOff[pj]:s.PostOff[pj+1]])
		}
	} else {
		r.mergeLo = r.mergeLo[:0]
		r.mergeHi = r.mergeHi[:0]
		for _, kw := range r.query {
			j := findKw(s.CellKw[kwLo:kwHi], kw)
			if j < 0 {
				continue
			}
			pj := kwLo + uint32(j)
			if s.PostOff[pj] < s.PostOff[pj+1] {
				r.mergeLo = append(r.mergeLo, s.PostOff[pj])
				r.mergeHi = append(r.mergeHi, s.PostOff[pj+1])
			}
		}
		const sentinel = ^uint32(0)
		for {
			minID := sentinel
			for i, lo := range r.mergeLo {
				if lo < r.mergeHi[i] && s.Postings[lo] < minID {
					minID = s.Postings[lo]
				}
			}
			if minID == sentinel {
				break
			}
			for i, lo := range r.mergeLo {
				if lo < r.mergeHi[i] && s.Postings[lo] == minID {
					r.mergeLo[i]++
				}
			}
			r.relX = append(r.relX, s.ObjX[minID])
			r.relY = append(r.relY, s.ObjY[minID])
			r.relW = append(r.relW, s.ObjW[minID])
		}
	}
	hi := uint32(len(r.relX))
	r.relStart[ord], r.relEnd[ord] = lo, hi
	return lo, hi
}

// appendRel copies the POIs of one postings range into the arenas.
func (r *slabRun) appendRel(postings []uint32) {
	s := r.ix.slab
	for _, m := range postings {
		r.relX = append(r.relX, s.ObjX[m])
		r.relY = append(r.relY, s.ObjY[m])
		r.relW = append(r.relW, s.ObjW[m])
	}
}

// findKw binary-searches a sorted keyword range for kw, returning its
// index or -1.
func findKw(kws []uint32, kw vocab.ID) int {
	lo, hi := 0, len(kws)
	for lo < hi {
		mid := (lo + hi) / 2
		if kws[mid] < kw {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(kws) && kws[lo] == kw {
		return lo
	}
	return -1
}

// ensureSeen initializes a segment's state on first touch.
func (r *slabRun) ensureSeen(sid uint32) {
	if r.segSeen[sid] == r.epoch {
		return
	}
	r.segSeen[sid] = r.epoch
	r.seen = append(r.seen, sid)
	r.stats.SegmentsSeen++
	lo, hi := r.plan.segCellOff[sid], r.plan.segCellOff[sid+1]
	if lo == hi {
		r.segMass[sid] = 0
		r.segFinal[sid] = r.epoch
		r.stats.SegmentsFinal++
		return
	}
	r.segMass[sid] = 0
	r.segFinal[sid] = 0
	r.segRemaining[sid] = int32(hi - lo)
}

// updateInterest visits cell ord for segment sid (procedure
// UpdateInterest): locate the cell in the segment's canonical Cε(ℓ) range
// — a few dozen cells at most, so a linear scan — mark it visited, and
// apply the visit.
func (r *slabRun) updateInterest(sid uint32, ord int32) {
	r.ensureSeen(sid)
	if r.segFinal[sid] == r.epoch {
		return
	}
	lo, hi := r.plan.segCellOff[sid], r.plan.segCellOff[sid+1]
	for j := lo; j < hi; j++ {
		if r.plan.segCell[j] == ord {
			if r.visited[j] == r.epoch {
				return
			}
			r.visited[j] = r.epoch
			r.segRemaining[sid]--
			r.applyVisit(sid, j, ord)
			return
		}
	}
}

// applyVisit performs the work of one cell visit: it sums the weights of
// the cell's query-relevant POIs within ε of the segment with the batched
// distance kernel (per-point arithmetic identical to DistToPointSq),
// raises mass−(ℓ), and propagates the improved interest lower bound to
// LBk. The contribution is folded into a local sum before it joins the
// segment mass, so it is a pure function of ⟨segment, cell, Ψ, ε⟩ (POIs
// stream in id order) regardless of the visit order the run uses.
func (r *slabRun) applyVisit(sid uint32, pair uint32, ord int32) {
	r.stats.CellVisits++
	lo, hi := r.relRange(ord)
	seg := r.segGeom(sid)
	epsSq := r.eps * r.eps
	contrib := seg.AccumWeightsWithin(r.relX[lo:hi], r.relY[lo:hi], r.relW[lo:hi], epsSq)
	r.contrib[pair] = contrib
	r.segMass[sid] += contrib
	if r.segRemaining[sid] == 0 {
		r.finalizeMass(sid)
	}
	if r.segMass[sid] > 0 {
		r.topk.update(r.ix.segStreet[sid], Interest(r.segMass[sid], r.ix.segLen[sid], r.eps), r.epoch)
	}
}

// finalizeMass recomputes the now-exact segment mass as the fold of its
// per-cell contributions in canonical Cε(ℓ) order. That makes the final
// mass independent of the visit order the schedule happened to use — a
// pure function of ⟨segment, Ψ, ε⟩ — so every schedule reports the same
// bits.
func (r *slabRun) finalizeMass(sid uint32) {
	var m float64
	for _, c := range r.contrib[r.plan.segCellOff[sid]:r.plan.segCellOff[sid+1]] {
		m += c
	}
	r.segMass[sid] = m
	r.segFinal[sid] = r.epoch
	r.stats.SegmentsFinal++
}

// skipFinal advances a segment-list pointer past segments that are
// already final; accessing them again cannot change any bound.
func (r *slabRun) skipFinal(list []network.SegmentID, p int) int {
	for p < len(list) && r.segFinal[list[p]] == r.epoch {
		p++
	}
	return p
}

// unseenUpperBound computes UB = top(SL1)·top(SL2) / (2ε·top(SL3) + πε²),
// the largest possible interest of any segment not yet encountered
// (Algorithm 1 line 22). An exhausted list makes the bound zero: no
// unseen segment can carry mass (SL1 empty) or exist at all (SL2/SL3
// empty).
func (r *slabRun) unseenUpperBound() float64 {
	r.p2 = r.skipFinal(r.plan.sl2, r.p2)
	r.p3 = r.skipFinal(r.ix.segsByLen, r.p3)
	if r.p1 >= len(r.sl1Cell) || r.p2 >= len(r.plan.sl2) || r.p3 >= len(r.ix.segsByLen) {
		return 0
	}
	top1 := r.sl1W[r.p1]
	sid2 := r.plan.sl2[r.p2]
	top2 := float64(r.plan.segCellOff[sid2+1] - r.plan.segCellOff[sid2])
	top3 := r.ix.segLen[r.ix.segsByLen[r.p3]]
	return Interest(top1*top2, top3, r.eps)
}

// remainingCells returns how many cells a segment still needs to visit to
// become final (all of Cε(ℓ) when unseen).
func (r *slabRun) remainingCells(sid network.SegmentID) int {
	if r.segSeen[sid] == r.epoch {
		return int(r.segRemaining[sid])
	}
	return int(r.plan.segCellOff[sid+1] - r.plan.segCellOff[sid])
}

// finalizeSegment visits every remaining ε-near cell of the segment,
// bringing it to the final state with exact interest.
func (r *slabRun) finalizeSegment(sid network.SegmentID) {
	r.stats.SegmentAccesses++
	r.ensureSeen(uint32(sid))
	r.drainSegment(uint32(sid))
}

// drainSegment visits the remaining cells of a seen segment in canonical
// order.
//
// Under Drain no cell has been visited before refine, so the segment's
// whole Cε(ℓ) is folded here in one pass, from +0 in canonical order as
// finalizeMass folds it. A cell filterDrain did not file under cwStamp
// holds no posting of a query keyword: its contribution is an empty sum,
// +0, and x + (+0) = x for every x ≥ +0, so the pass opens only the filed
// cells and the mass keeps its bits. CellVisits still counts all of
// Cε(ℓ), as the visit-by-visit loop did.
func (r *slabRun) drainSegment(sid uint32) {
	lo, hi := r.plan.segCellOff[sid], r.plan.segCellOff[sid+1]
	if r.strat == Drain {
		seg := r.segGeom(sid)
		epsSq := r.eps * r.eps
		var m float64
		for _, ord := range r.plan.segCell[lo:hi] {
			if r.cwStamp[ord] != r.epoch {
				continue
			}
			a, b := r.relRange(ord)
			m += seg.AccumWeightsWithin(r.relX[a:b], r.relY[a:b], r.relW[a:b], epsSq)
		}
		r.stats.CellVisits += int(hi - lo)
		r.segMass[sid] = m
		r.segFinal[sid] = r.epoch
		r.stats.SegmentsFinal++
		return
	}
	for j := lo; j < hi; j++ {
		if r.segFinal[sid] == r.epoch {
			return
		}
		if r.visited[j] == r.epoch {
			continue
		}
		r.visited[j] = r.epoch
		r.segRemaining[sid]--
		r.applyVisit(sid, j, r.plan.segCell[j])
	}
}

// filter is the main loop of Algorithm 1 (lines 8–24). The paper leaves
// the source access strategy free ("the correctness of our method is not
// affected by the access strategy") and notes that, in practice, it
// alternates between SL1 and SL3 and dips into SL2 only when a few
// segments with a large number of neighboring cells exist. We implement
// that strategy cost-aware: SL1 drives the search; SL3 is consumed while
// its next segment is cheap to finalize (few ε-near cells); SL2 is
// consumed only while its next segment has an outlier cell count.
func (r *slabRun) filter() error {
	if r.strat == Drain {
		return r.filterDrain()
	}
	// avgCells calibrates the SL2 outlier threshold.
	totalPairs := len(r.plan.segCell)
	numSegs := len(r.ix.segLen)
	avgCells := 1.0
	if numSegs > 0 {
		avgCells = float64(totalPairs) / float64(numSegs)
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
		// is a pure function of the query however fast LBk rises.
		r.stats.FilterIterations++
		if err := r.checkpoint(SiteFilter); err != nil {
			return err
		}
		if ub := r.unseenUpperBound(); ub == 0 || ub < r.topk.bound(r.epoch) {
			return nil
		}
		if r.p1 >= len(r.sl1Cell) {
			// SL1 exhausted: no unseen segment can have positive mass.
			return nil
		}
		r.popSL1()
		// SL3 accesses: finalize short segments while cheap; each pop
		// raises top(SL3) and with it the unseen bound's denominator.
		r.p3 = r.skipFinal(r.ix.segsByLen, r.p3)
		for burst := 0; burst < 4 && r.p3 < len(r.ix.segsByLen); burst++ {
			sid := r.ix.segsByLen[r.p3]
			if r.remainingCells(sid) > cheapCells {
				break
			}
			r.stats.SL3Accesses++
			r.finalizeSegment(sid)
			r.p3++
			r.p3 = r.skipFinal(r.ix.segsByLen, r.p3)
		}
		// SL2 access: finalize a segment only while the head of SL2 is an
		// outlier in neighboring-cell count, shrinking top(SL2).
		r.p2 = r.skipFinal(r.plan.sl2, r.p2)
		if r.p2 < len(r.plan.sl2) {
			sid := r.plan.sl2[r.p2]
			if int(r.plan.segCellOff[sid+1]-r.plan.segCellOff[sid]) >= monsterCells {
				r.stats.SL2Accesses++
				r.finalizeSegment(sid)
				r.p2++
			}
		}
	}
}

// popSL1 is one SL1 access: pop the cell with the largest relevant weight
// and update every segment within ε of it.
func (r *slabRun) popSL1() {
	ord := r.sl1Cell[r.p1]
	r.p1++
	r.stats.CellAccesses++
	for _, sid := range r.plan.cellSeg[r.plan.cellSegOff[ord]:r.plan.cellSegOff[ord+1]] {
		r.updateInterest(sid, ord)
	}
}

// filterDrain is the whole filter phase of the Drain schedule: one pass
// over the query's relevant cells in ascending cell ordinal that marks
// every segment within ε of one as seen and adds the cell's SL1 weight to
// the segment's refine bound. It visits no cell's POIs. A segment it does
// not reach has no relevant cell and so no mass; all the pruning is
// refine's, which drains the marked segments in the order of these
// bounds. Cε(ℓ) is ascending too, so each bound is the float sum refine's
// own loop over Cε(ℓ) would fold, to the bit.
func (r *slabRun) filterDrain() error {
	for i, ord := range r.sl1Cell {
		r.cwVal[ord] = r.sl1W[i]
		r.cwStamp[ord] = r.epoch
	}
	for ord, stamp := range r.cwStamp {
		if stamp != r.epoch {
			continue
		}
		if err := r.checkpoint(SiteFilter); err != nil {
			return err
		}
		r.stats.CellAccesses++
		w := r.cwVal[ord]
		for _, sid := range r.plan.cellSeg[r.plan.cellSegOff[ord]:r.plan.cellSegOff[ord+1]] {
			if r.segSeen[sid] != r.epoch {
				r.ensureSeen(sid)
				r.segBound[sid] = 0
			}
			r.segBound[sid] += w
		}
	}
	return nil
}

// refine extracts the k most interesting streets from the seen segments
// (Algorithm 1 lines 25–28), finalizing segments only "as necessary":
// candidates are processed in decreasing order of an interest upper bound
// (accounted mass plus the full relevant weight of every unvisited cell;
// SL1 entries carry exactly min(|Pc|, Σψ I[ψ][c])), and processing stops
// once the next candidate's upper bound cannot beat the k-th best exact
// street interest. Streets with zero interest are not reported; ties are
// broken by street id for determinism.
//
// Under CostAware refine sums each bound itself over the segment's
// Cε(ℓ), skipping visited cells. Under Drain no cell has been visited,
// and filterDrain has already summed every bound, in the same order.
//
// The candidates are ranked lazily: a heap built in linear time yields
// them one at a time in candSorter's order, so a query pays for the few
// hundred segments it drains, not for sorting the thousands it saw. The
// same heap then picks the k best of the streets the drain touched, and
// only those become rows: out grows by at most k, into fresh storage of
// exactly that size when its own capacity is short.
func (r *slabRun) refine(out []StreetResult) ([]StreetResult, error) {
	r.candSid = r.candSid[:0]
	r.candUB = r.candUB[:0]
	if r.strat == Drain {
		for _, sid := range r.seen {
			r.addCandidate(sid, r.segBound[sid])
		}
	} else {
		for i, ord := range r.sl1Cell {
			r.cwVal[ord] = r.sl1W[i]
			r.cwStamp[ord] = r.epoch
		}
		for _, sid := range r.seen {
			pot := r.segMass[sid]
			if r.segFinal[sid] != r.epoch {
				for j := r.plan.segCellOff[sid]; j < r.plan.segCellOff[sid+1]; j++ {
					if r.visited[j] != r.epoch {
						if ord := r.plan.segCell[j]; r.cwStamp[ord] == r.epoch {
							pot += r.cwVal[ord]
						}
					}
				}
			}
			r.addCandidate(sid, pot)
		}
	}
	h := &r.candSorter
	h.sids, h.ubs = r.candSid, r.candUB
	h.heapify()

	for len(h.sids) > 0 {
		if err := r.checkpoint(SiteRefine); err != nil {
			return nil, err
		}
		// Strictly below the k-th exact interest: the candidate can
		// neither enter nor tie into the top-k. The comparison must be
		// strict so that exact ties at the boundary are always drained —
		// that keeps the reported set a pure function of the query, no
		// matter which segments the schedule had already finalised.
		if bound := r.exact.bound(r.epoch); bound > 0 && h.ubs[0] < bound {
			break
		}
		sid := h.pop()
		if r.segFinal[sid] != r.epoch {
			r.stats.RefineDrained++
			r.drainSegment(sid)
		}
		mass := r.segMass[sid]
		if mass <= 0 {
			continue
		}
		in := Interest(mass, r.ix.segLen[sid], r.eps)
		street := r.ix.segStreet[sid]
		r.exact.update(street, in, r.epoch)
		if r.sbStamp[street] != r.epoch {
			r.sbStamp[street] = r.epoch
			r.sbTouched = append(r.sbTouched, street)
			r.sbInterest[street] = in
			r.sbSeg[street] = sid
			r.sbMass[street] = mass
		} else if in > r.sbInterest[street] || (in == r.sbInterest[street] && sid < r.sbSeg[street]) {
			r.sbInterest[street] = in
			r.sbSeg[street] = sid
			r.sbMass[street] = mass
		}
	}
	// (interest, street) is ordered the way (bound, segment) is, so the
	// candidate heap, whose arrays are free now and at least as long as
	// the touched streets, yields the streets canonically (SortResults).
	h.sids, h.ubs = r.candSid[:0], r.candUB[:0]
	for _, street := range r.sbTouched {
		h.sids = append(h.sids, street)
		h.ubs = append(h.ubs, r.sbInterest[street])
	}
	h.heapify()
	n := min(r.k, len(h.sids))
	if cap(out)-len(out) < n {
		out = append(make([]StreetResult, 0, len(out)+n), out...)
	}
	for ; n > 0; n-- {
		street := h.pop()
		out = append(out, StreetResult{
			Street:      network.StreetID(street),
			Name:        r.ix.net.Street(network.StreetID(street)).Name,
			Interest:    r.sbInterest[street],
			BestSegment: network.SegmentID(r.sbSeg[street]),
			Mass:        r.sbMass[street],
		})
	}
	return out, nil
}

// addCandidate lists a seen segment for refine's drain under the interest
// bound of its potential mass pot, unless pot shows it massless.
func (r *slabRun) addCandidate(sid uint32, pot float64) {
	if pot <= 0 {
		return
	}
	r.candSid = append(r.candSid, sid)
	r.candUB = append(r.candUB, Interest(pot, r.ix.segLen[sid], r.eps))
}

// candSorter orders parallel (id, value) slices decreasingly by value,
// ties by ascending id — refine's candidates as (segment, upper bound)
// and its streets as (street, interest). Ids are distinct, so the order
// is total, and popping its heap yields exactly the sequence sort.Sort
// would leave, one element at a time: heapify costs O(n), each pop
// O(log n).
type candSorter struct {
	sids []uint32
	ubs  []float64
}

func (s *candSorter) Len() int { return len(s.sids) }
func (s *candSorter) Less(i, j int) bool {
	if s.ubs[i] != s.ubs[j] {
		return s.ubs[i] > s.ubs[j]
	}
	return s.sids[i] < s.sids[j]
}
func (s *candSorter) Swap(i, j int) {
	s.sids[i], s.sids[j] = s.sids[j], s.sids[i]
	s.ubs[i], s.ubs[j] = s.ubs[j], s.ubs[i]
}

// heapify arranges the slices as a binary heap whose root comes first in
// the order (Floyd's bottom-up construction).
func (s *candSorter) heapify() {
	for i := len(s.sids)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

// pop removes the root — the first element in the order — and returns its
// id. The slices must not be empty.
func (s *candSorter) pop() uint32 {
	id := s.sids[0]
	n := len(s.sids) - 1
	s.Swap(0, n)
	s.sids, s.ubs = s.sids[:n], s.ubs[:n]
	s.down(0)
	return id
}

// down sifts element i toward the leaves until neither child precedes it.
func (s *candSorter) down(i int) {
	n := len(s.sids)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && s.Less(c+1, c) {
			c++
		}
		if !s.Less(c, i) {
			return
		}
		s.Swap(i, c)
		i = c
	}
}

// slabTopK maintains the k-th largest per-street best segment interest
// lower bound under increase-only updates. This realizes Algorithm 1's
// LBk = int−(ℓµ), using the observation that the µ-th segment of the
// ranked seen list (the first segment of the k-th distinct street) carries
// exactly the k-th largest per-street maximum.
//
// Implementation: per-street best values in stamped arrays, plus a
// lazy-deletion binary min-heap over the current top-k streets in
// parallel slices; it may hold stale entries, which popStale drops.
type slabTopK struct {
	k    int
	nTop int

	best      []float64 // per street, valid when bestStamp matches
	bestStamp []uint32
	inTop     []uint32 // stamp: street counted in the top-k

	hs []uint32 // heap: street ids
	hv []float64
}

// init sizes the arrays for a run and empties the heap. Stamped slots
// from earlier runs invalidate themselves via the epoch.
func (t *slabTopK) init(k, numStreets int) {
	t.k = k
	t.nTop = 0
	t.best = growF64(t.best, numStreets)
	t.bestStamp = growU32(t.bestStamp, numStreets)
	t.inTop = growU32(t.inTop, numStreets)
	t.hs = t.hs[:0]
	t.hv = t.hv[:0]
}

func (t *slabTopK) push(s uint32, v float64) {
	t.hs = append(t.hs, s)
	t.hv = append(t.hv, v)
	i := len(t.hv) - 1
	for i > 0 {
		p := (i - 1) / 2
		if t.hv[p] <= t.hv[i] {
			break
		}
		t.hs[p], t.hs[i] = t.hs[i], t.hs[p]
		t.hv[p], t.hv[i] = t.hv[i], t.hv[p]
		i = p
	}
}

func (t *slabTopK) pop() (uint32, float64) {
	s, v := t.hs[0], t.hv[0]
	n := len(t.hv) - 1
	t.hs[0], t.hv[0] = t.hs[n], t.hv[n]
	t.hs, t.hv = t.hs[:n], t.hv[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && t.hv[l] < t.hv[min] {
			min = l
		}
		if r < n && t.hv[r] < t.hv[min] {
			min = r
		}
		if min == i {
			break
		}
		t.hs[i], t.hs[min] = t.hs[min], t.hs[i]
		t.hv[i], t.hv[min] = t.hv[min], t.hv[i]
		i = min
	}
	return s, v
}

// popStale drops heap entries that no longer reflect a street's current
// best value or top-k membership.
func (t *slabTopK) popStale(epoch uint32) {
	for len(t.hv) > 0 {
		s, v := t.hs[0], t.hv[0]
		if t.inTop[s] == epoch && t.best[s] == v {
			return
		}
		t.pop()
	}
}

// update raises street's best value to v when it improves, and
// rebalances the top-k set.
func (t *slabTopK) update(street uint32, v float64, epoch uint32) {
	if t.bestStamp[street] == epoch && v <= t.best[street] {
		return
	}
	t.best[street] = v
	t.bestStamp[street] = epoch
	if t.inTop[street] == epoch {
		// Value changed; the old heap entry is now stale. Push the fresh one.
		t.push(street, v)
		return
	}
	if t.nTop < t.k {
		t.inTop[street] = epoch
		t.nTop++
		t.push(street, v)
		return
	}
	t.popStale(epoch)
	if len(t.hv) == 0 || v <= t.hv[0] {
		return
	}
	// Evict the current minimum and admit street.
	evicted, _ := t.pop()
	t.inTop[evicted] = 0
	t.inTop[street] = epoch
	t.push(street, v)
}

// bound returns the current LBk: the k-th largest per-street best value,
// or 0 while fewer than k streets have been seen.
func (t *slabTopK) bound(epoch uint32) float64 {
	if t.nTop < t.k {
		return 0
	}
	t.popStale(epoch)
	if len(t.hv) == 0 {
		return 0
	}
	return t.hv[0]
}
