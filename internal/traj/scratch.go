package traj

import (
	"context"
	"math"
	"slices"

	"repro/internal/network"
)

// searchScratch is the pooled per-query state of a route search, owned
// by the Graph's pool. Everything a query needs beside its answer lives
// here, so a steady-state query allocates only what it returns, and
// nothing is initialised in proportion to the network: the per-vertex
// and per-segment arrays are stamped with a query epoch — a slot belongs
// to the current query only when its stamp equals the epoch — so
// "clearing" them is one counter increment. Epoch zero is reserved for
// never-written slots; when the counter wraps, every stamp array is
// zeroed once.
type searchScratch struct {
	epoch uint32

	// The two budget-bounded distance fields and the heap both runs share.
	toDst, fromSrc distField
	heap           distHeap

	// interests[s] holds segment s's folded interest where
	// segStamp[s] == epoch; every other segment was never evaluated.
	segStamp  []uint32
	interests []float64

	// The collectible-interest bound: feasible positive interests sorted
	// by need, as parallel need / prefix-sum arrays.
	entries   []needEntry
	needs     []float64
	prefixPos []float64

	// arena holds every partial path of the search as a node linked to
	// its parent; frontier is the best-first heap of arena indices.
	arena    []partial
	frontier []int32

	// Completed routes, their sequences carved from the two arenas, and
	// the min-heap of the k best completion scores.
	completions []Route
	vertArena   []network.VertexID
	segArena    []network.SegmentID
	top         []float64
}

// needEntry is one feasible positive-interest segment of the collectible
// bound: a completion suffix that traverses it and then reaches the
// destination is at least need long.
type needEntry struct{ need, pos float64 }

// grow returns a slice of length n, reusing s's storage when it is large
// enough. Fresh storage is zeroed by the runtime, which the stamp arrays
// rely on (epoch zero means never written).
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// begin starts a query over g: a fresh epoch, every per-vertex and
// per-segment array sized to the graph, every append buffer emptied. A
// scratch may serve graphs of different sizes in turn — storage a
// smaller graph does not cover keeps its older stamps, which no later
// epoch equals until the wrap zeroes the full capacity.
func (sc *searchScratch) begin(g *Graph) {
	sc.epoch++
	if sc.epoch == 0 {
		sc.epoch = 1
		for _, s := range [][]uint32{sc.toDst.stamp, sc.fromSrc.stamp, sc.segStamp} {
			clear(s[:cap(s)])
		}
	}
	nv, ns := g.NumVertices(), g.net.NumSegments()
	sc.toDst.size(nv, sc.epoch)
	sc.fromSrc.size(nv, sc.epoch)
	sc.segStamp = grow(sc.segStamp, ns)
	sc.interests = grow(sc.interests, ns)
	sc.entries = sc.entries[:0]
	sc.arena = sc.arena[:0]
	sc.frontier = sc.frontier[:0]
	sc.completions = sc.completions[:0]
	sc.vertArena = sc.vertArena[:0]
	sc.segArena = sc.segArena[:0]
	sc.top = sc.top[:0]
}

// distField is one bounded Dijkstra's result: dist[v] is the shortest
// distance where stamp[v] == epoch, and +Inf everywhere else — the
// vertices the run never reached within its limit. settled lists the
// reached vertices in the order they were settled.
type distField struct {
	epoch   uint32
	dist    []float64
	stamp   []uint32
	settled []network.VertexID
}

func (f *distField) size(n int, epoch uint32) {
	f.epoch = epoch
	f.dist = grow(f.dist, n)
	f.stamp = grow(f.stamp, n)
	f.settled = f.settled[:0]
}

// at returns the field's distance to v, +Inf when v was not reached.
func (f *distField) at(v network.VertexID) float64 {
	if f.stamp[v] != f.epoch {
		return math.Inf(1)
	}
	return f.dist[v]
}

// distancesWithin runs Dijkstra from src into f, never relaxing an edge
// past limit, and records the settled vertices. Every vertex whose
// shortest distance is at most limit gets exactly the float an unbounded
// run gives it: such a vertex's distance is reached through predecessors
// that are no farther (edge lengths are non-negative and fl(a+b) ≥ a),
// so by induction they pop in the same order with the same values; a
// vertex farther than limit is never pushed and reads as +Inf. The
// context is polled every ctxPollInterval settled vertices.
func (g *Graph) distancesWithin(ctx context.Context, sc *searchScratch, f *distField, src network.VertexID, limit float64) error {
	h := &sc.heap
	*h = (*h)[:0]
	f.settled = f.settled[:0]
	f.dist[src], f.stamp[src] = 0, f.epoch
	h.push(distItem{v: src, d: 0})
	for h.Len() > 0 {
		it := h.pop()
		if it.d > f.dist[it.v] {
			continue
		}
		if len(f.settled)%ctxPollInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		f.settled = append(f.settled, it.v)
		for _, e := range g.Adjacent(it.v) {
			nd := it.d + e.Len
			if nd > limit {
				continue
			}
			if f.stamp[e.To] != f.epoch || nd < f.dist[e.To] {
				f.dist[e.To], f.stamp[e.To] = nd, f.epoch
				h.push(distItem{v: e.To, d: nd})
			}
		}
	}
	return nil
}

type distItem struct {
	v network.VertexID
	d float64
}

// distHeap is a minimal binary min-heap over (distance, vertex).
type distHeap []distItem

func (h distHeap) Len() int { return len(h) }

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[i].less((*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *distHeap) pop() distItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h)[l].less((*h)[smallest]) {
			smallest = l
		}
		if r < n && (*h)[r].less((*h)[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

func (a distItem) less(b distItem) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.v < b.v
}

// partial is one node of the search tree: a vertex-simple path from the
// source, stored as its last hop plus a link to the path it extends.
type partial struct {
	// parent is the arena index of the path this one extends, -1 at the
	// source.
	parent int32
	vert   network.VertexID
	// seg is the segment walked to reach vert, ConnectorSeg for a
	// connector hop and at the source.
	seg int32
	// depth and nsegs count the path's vertices and segments.
	depth, nsegs int32
	length       float64
	interest     float64
	// remPos is the positive interest not yet collected by this path,
	// over the budget-feasible segment set.
	remPos float64
	// ub is the admissible score upper bound: collected interest, plus
	// the uncollected positive interest still collectible within the
	// remaining budget, minus α times the best-case completed length.
	ub float64
}

// visits reports whether the path ending at arena node i passes through
// v (the search is loopless: vertex-simple paths only).
func (sc *searchScratch) visits(i int32, v network.VertexID) bool {
	for ; i >= 0; i = sc.arena[i].parent {
		if sc.arena[i].vert == v {
			return true
		}
	}
	return false
}

// appendVertSeq appends the vertex sequence of the path ending at arena
// node i, source first, to dst.
func (sc *searchScratch) appendVertSeq(dst []network.VertexID, i int32) []network.VertexID {
	n := len(dst) + int(sc.arena[i].depth)
	dst = slices.Grow(dst, n-len(dst))[:n]
	for j := n - 1; i >= 0; i = sc.arena[i].parent {
		dst[j] = sc.arena[i].vert
		j--
	}
	return dst
}

// appendSegSeq is appendVertSeq for the traversed segments (connector
// hops carry none).
func (sc *searchScratch) appendSegSeq(dst []network.SegmentID, i int32) []network.SegmentID {
	n := len(dst) + int(sc.arena[i].nsegs)
	dst = slices.Grow(dst, n-len(dst))[:n]
	for j := n - 1; i >= 0; i = sc.arena[i].parent {
		if s := sc.arena[i].seg; s != ConnectorSeg {
			dst[j] = network.SegmentID(s)
			j--
		}
	}
	return dst
}

// less orders frontier entries best-first: upper bound descending, then
// length ascending, then lexicographic vertex sequence — a total,
// deterministic order. Only an exact (ub, length) tie walks the parent
// links.
func (sc *searchScratch) less(a, b int32) bool {
	pa, pb := &sc.arena[a], &sc.arena[b]
	if pa.ub != pb.ub {
		return pa.ub > pb.ub
	}
	if pa.length != pb.length {
		return pa.length < pb.length
	}
	return sc.lessPath(a, b)
}

// lessPath compares the vertex sequences of two paths, source first,
// without spelling them out: the deeper path is cut back to the other's
// depth, then both climb in step until they meet in a common ancestor,
// and the last level at which their vertices differed on the way up is
// the first at which the sequences differ read from the source. (Two
// distinct nodes can carry the same vertex — parallel edges — so the
// level just below the meeting point need not be the one.) Sequences
// equal over the shorter path's length order by length.
func (sc *searchScratch) lessPath(a, b int32) bool {
	da, db := sc.arena[a].depth, sc.arena[b].depth
	for d := da; d > db; d-- {
		a = sc.arena[a].parent
	}
	for d := db; d > da; d-- {
		b = sc.arena[b].parent
	}
	var va, vb network.VertexID
	for a != b {
		if x, y := sc.arena[a].vert, sc.arena[b].vert; x != y {
			va, vb = x, y
		}
		a, b = sc.arena[a].parent, sc.arena[b].parent
	}
	if va != vb {
		return va < vb
	}
	return da < db
}

// pushFrontier and popFrontier are container/heap's Push and Pop over
// arena indices, sift for sift: partials that tie in the total order
// (parallel edges) leave in the order the boxed heap released them, so
// the search's counters do not depend on the heap's representation.
func (sc *searchScratch) pushFrontier(i int32) {
	sc.frontier = append(sc.frontier, i)
	f := sc.frontier
	for j := len(f) - 1; ; {
		p := (j - 1) / 2
		if p == j || !sc.less(f[j], f[p]) {
			break
		}
		f[p], f[j] = f[j], f[p]
		j = p
	}
}

func (sc *searchScratch) popFrontier() int32 {
	f := sc.frontier
	n := len(f) - 1
	f[0], f[n] = f[n], f[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && sc.less(f[j2], f[j]) {
			j = j2
		}
		if !sc.less(f[j], f[i]) {
			break
		}
		f[i], f[j] = f[j], f[i]
		i = j
	}
	sc.frontier = f[:n]
	return f[n]
}

// complete records the path ending at arena node i as a finished route,
// its sequences carved from the pooled arenas. A growing arena moves to
// new storage without disturbing the routes already carved from the old.
func (sc *searchScratch) complete(i int32, score float64) {
	p := &sc.arena[i]
	nv, ns := len(sc.vertArena), len(sc.segArena)
	sc.vertArena = sc.appendVertSeq(sc.vertArena, i)
	sc.segArena = sc.appendSegSeq(sc.segArena, i)
	sc.completions = append(sc.completions, Route{
		Vertices: sc.vertArena[nv:],
		Segments: sc.segArena[ns:],
		Length:   p.length,
		Interest: p.interest,
		Score:    score,
	})
}

// offerScore folds one completion score into the min-heap of the k best
// and returns the kth-best score so far, -Inf until k routes completed.
func (sc *searchScratch) offerScore(score float64, k int) float64 {
	h := sc.top
	switch {
	case len(h) < k:
		h = append(h, score)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[j] >= h[p] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		sc.top = h
	case score > h[0]:
		h[0] = score
		for i := 0; ; {
			j := 2*i + 1
			if j >= len(h) {
				break
			}
			if j2 := j + 1; j2 < len(h) && h[j2] < h[j] {
				j = j2
			}
			if h[j] >= h[i] {
				break
			}
			h[i], h[j] = h[j], h[i]
			i = j
		}
	}
	if len(h) < k {
		return math.Inf(-1)
	}
	return h[0]
}
