package traj

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/network"
)

// TrajQuery ranks streets by interest restricted to the corridors a set
// of user movement traces actually traveled.
type TrajQuery struct {
	// Traces are the raw movement polylines (sampled GPS-like points).
	Traces [][]geo.Point
	// K is the number of streets to return.
	K int
	// Radius is the map-matching snap radius: a trace point matches the
	// nearest segment within this distance, or no segment at all.
	Radius float64
}

// Validate reports whether k and the radius are well formed;
// TrajectorySOI also refuses a query without traces.
func (q TrajQuery) Validate() error {
	if q.K <= 0 {
		return fmt.Errorf("traj: non-positive k %d", q.K)
	}
	if math.IsNaN(q.Radius) || math.IsInf(q.Radius, 0) {
		return fmt.Errorf("traj: non-finite radius %v", q.Radius)
	}
	if q.Radius <= 0 {
		return fmt.Errorf("traj: non-positive radius %v", q.Radius)
	}
	return nil
}

// CorridorResult is one ranked street of a trajectory-SOI query.
type CorridorResult struct {
	// Street is the street id.
	Street network.StreetID
	// Name is the street's display name.
	Name string
	// Coverage is the traveled fraction of the street: the summed length
	// of its segments touched by any trace point, divided by the
	// street's total length. In (0, 1].
	Coverage float64
	// Interest is the maximum segment interest among the street's
	// traveled segments.
	Interest float64
	// Score = Coverage × Interest, the ranking key.
	Score float64
}

// MatchStats reports the map-matching work one trajectory query did.
type MatchStats struct {
	// TracePoints counts trace points examined.
	TracePoints int
	// Matched counts trace points that snapped to a segment.
	Matched int
	// CoveredSegments counts distinct segments touched by any trace: the
	// corridor, one interest fold each.
	CoveredSegments int
}

// Matcher snaps free points to their nearest street segment within a
// fixed radius, using a uniform grid of segment buckets so each lookup
// only scans nearby candidates. Matching is deterministic: the winner is
// the globally nearest segment within the radius, exact distance ties
// broken by the lowest segment id — identical to a full ascending scan
// over every segment, which is what the oracle does.
//
// The buckets are one CSR array over the block of cells the segments'
// bounding boxes occupy, row-major: absolute cell (x0+i, y0+j) holds
// ids[off[j*nx+i]:off[j*nx+i+1]], in ascending segment id. That is 4 B
// per cell of the block plus 4 B per bucket entry, and a lookup reads
// three contiguous row runs instead of hashing nine cell keys.
type Matcher struct {
	net    *network.Network
	radius float64
	r2     float64
	cell   float64
	x0, y0 int
	nx, ny int
	off    []uint32
	ids    []network.SegmentID
}

// maxMatchCellsPerDim bounds the matcher grid's resolution along each
// axis relative to the network extent. The cell size is floored at
// extent/maxMatchCellsPerDim, so an adversarially tiny snap radius
// (radius is request-controlled on the serving path) cannot make grid
// construction enumerate an unbounded number of cells — only the 3×3
// lookup invariant (cell ≥ radius) matters for correctness, not cell
// equality with the radius.
const maxMatchCellsPerDim = 1024

// NewMatcher builds the segment grid for one snap radius. The cell size
// is the radius floored at extent/maxMatchCellsPerDim; cell ≥ radius
// guarantees any segment within radius of a point is bucketed somewhere
// in the 3×3 cell block around it. Segments are bucketed into every
// cell their bounding box overlaps, cells indexed absolutely
// (cellIndex(coordinate/cell)); over finite bounds the grid block spans
// at most about maxMatchCellsPerDim+2 cells a side. A non-positive or
// NaN radius yields a matcher that matches nothing.
func NewMatcher(net *network.Network, radius float64) *Matcher {
	m := &Matcher{net: net, radius: radius, r2: radius * radius}
	if !(radius > 0) || net.NumSegments() == 0 {
		return m
	}
	m.cell = radius
	nb := net.Bounds()
	if extent := math.Max(nb.MaxX-nb.MinX, nb.MaxY-nb.MinY); extent > 0 {
		if floor := extent / maxMatchCellsPerDim; m.cell < floor {
			m.cell = floor
		}
	}
	// Only NaN network bounds — which disable the floor and send NaN
	// coordinates to index 0 — can make the block wider than the floor
	// allows; coarsening the cell keeps cell ≥ radius and the grid small.
	for {
		x0, x1, y0, y1 := math.MaxInt, math.MinInt, math.MaxInt, math.MinInt
		for i := range net.Segments() {
			sx0, sx1, sy0, sy1 := m.span(network.SegmentID(i))
			x0, x1 = min(x0, sx0), max(x1, sx1)
			y0, y1 = min(y0, sy0), max(y1, sy1)
		}
		m.x0, m.y0, m.nx, m.ny = x0, y0, x1-x0+1, y1-y0+1
		if m.nx <= 2*maxMatchCellsPerDim && m.ny <= 2*maxMatchCellsPerDim {
			break
		}
		m.cell *= 2
	}
	// Count into off[c+1], prefix-sum to bucket starts, fill in ascending
	// segment id advancing off[c] as the cursor, then shift back by one.
	m.off = make([]uint32, m.nx*m.ny+1)
	m.eachCell(func(_ network.SegmentID, c int) { m.off[c+1]++ })
	for c := 1; c < len(m.off); c++ {
		m.off[c] += m.off[c-1]
	}
	m.ids = make([]network.SegmentID, m.off[len(m.off)-1])
	m.eachCell(func(sid network.SegmentID, c int) {
		m.ids[m.off[c]] = sid
		m.off[c]++
	})
	copy(m.off[1:], m.off[:len(m.off)-1])
	m.off[0] = 0
	return m
}

// span returns the absolute cell range a segment's bounding box covers.
func (m *Matcher) span(sid network.SegmentID) (x0, x1, y0, y1 int) {
	b := m.net.Segment(sid).Geom.Bounds()
	return cellIndex(b.MinX / m.cell), cellIndex(b.MaxX / m.cell), cellIndex(b.MinY / m.cell), cellIndex(b.MaxY / m.cell)
}

// eachCell calls fn for every (segment, grid cell) bucket entry, segments
// in ascending id order.
func (m *Matcher) eachCell(fn func(sid network.SegmentID, c int)) {
	for i := range m.net.Segments() {
		sid := network.SegmentID(i)
		x0, x1, y0, y1 := m.span(sid)
		for y := y0; y <= y1; y++ {
			row := (y - m.y0) * m.nx
			for x := x0; x <= x1; x++ {
				fn(sid, row+x-m.x0)
			}
		}
	}
}

// cellIndex converts a scaled coordinate to a grid index, clamping just
// inside the int32 range instead of relying on Go's
// implementation-defined overflowing float→int conversion. Callers do
// their ±1 neighbour arithmetic in int, which the clamped values cannot
// overflow. Clamping is monotone, so two values within one cell of each
// other still land at most one index apart — the property the 3×3
// lookup needs.
func cellIndex(v float64) int {
	switch {
	case math.IsNaN(v):
		return 0
	case v <= math.MinInt32+1:
		return math.MinInt32 + 1
	case v >= math.MaxInt32-1:
		return math.MaxInt32 - 1
	}
	return int(math.Floor(v))
}

// Radius returns the matcher's snap radius.
func (m *Matcher) Radius() float64 { return m.radius }

// Match snaps p to the nearest segment within the radius. The boolean is
// false when no segment is close enough. The 3×3 block around the point,
// clipped to the grid, is three contiguous runs of the bucket array,
// walked in place — no hashing, no candidate list, no sort, no
// allocation — and the winner is chosen by the explicit (squared
// distance, segment id) order, which neither the walk order nor a
// segment bucketed in several of the nine cells can disturb: meeting it
// again neither improves the distance nor lowers the id.
func (m *Matcher) Match(p geo.Point) (network.SegmentID, bool) {
	if !(m.radius > 0) {
		return 0, false
	}
	cx := cellIndex(p.X/m.cell) - m.x0
	cy := cellIndex(p.Y/m.cell) - m.y0
	xa, xb := max(cx-1, 0), min(cx+1, m.nx-1)
	var (
		best   network.SegmentID
		bestD2 = math.Inf(1)
	)
	if xa <= xb {
		for y := max(cy-1, 0); y <= min(cy+1, m.ny-1); y++ {
			row := y * m.nx
			for _, sid := range m.ids[m.off[row+xa]:m.off[row+xb+1]] {
				if d2 := m.net.Segment(sid).Geom.DistToPointSq(p); d2 < bestD2 || (d2 == bestD2 && sid < best) {
					best, bestD2 = sid, d2
				}
			}
		}
	}
	if bestD2 <= m.r2 {
		return best, true
	}
	return 0, false
}

// TrajectorySOI map-matches every trace point and ranks streets by
// interest restricted to the traveled corridor. For each street with at
// least one matched segment:
//
//	coverage = Σ len(matched segments) / len(street)
//	interest = max segment interest over matched segments
//	score    = coverage × interest
//
// Sums and maxima run in ascending segment-id order with explicit
// tie-breaks, so the result is bit-identical to the oracle's exhaustive
// computation for the same matched corridor. Streets with zero score are
// omitted; results order by score descending, then street id ascending,
// truncated to K. The corridor is the list of matched segment ids, so
// nothing sized by the network is allocated or walked per query.
func TrajectorySOI(ctx context.Context, m *Matcher, interest InterestFunc, q TrajQuery) ([]CorridorResult, MatchStats, error) {
	var st MatchStats
	if err := q.Validate(); err != nil {
		return nil, st, err
	}
	if len(q.Traces) == 0 {
		return nil, st, fmt.Errorf("traj: no traces")
	}
	if q.Radius != m.radius {
		return nil, st, fmt.Errorf("traj: query radius %v does not match matcher radius %v", q.Radius, m.radius)
	}
	covered := make([]network.SegmentID, 0, 64)
	for _, trace := range q.Traces {
		if err := faults.InjectCtx(ctx, "traj.match"); err != nil {
			return nil, st, err
		}
		for _, p := range trace {
			if st.TracePoints%ctxPollInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, st, err
				}
			}
			st.TracePoints++
			if sid, ok := m.Match(p); ok {
				st.Matched++
				// Successive points mostly snap to the segment before them.
				if n := len(covered); n == 0 || covered[n-1] != sid {
					covered = append(covered, sid)
				}
			}
		}
	}
	slices.Sort(covered)
	results := CorridorRanking(m.net, slices.Compact(covered), interest, q.K, &st)
	return results, st, nil
}

// CorridorRanking turns a corridor — the covered segment ids, ascending
// and duplicate-free — into the canonical street ranking. It is shared by
// the pruned implementation and the oracle so the aggregation arithmetic
// — the part both sides must agree on given the same corridor and
// interests — is computed one way only; the differential then isolates
// disagreements to matching and interest provenance. Its cost follows the
// corridor, not the network. stats may be nil.
func CorridorRanking(net *network.Network, covered []network.SegmentID, interest InterestFunc, k int, stats *MatchStats) []CorridorResult {
	if stats != nil {
		stats.CoveredSegments += len(covered)
	}
	// A street's segment ids are consecutive and follow the street ids
	// (network.Street), so in the ascending corridor each street's
	// segments form one run in ascending id — the operands, in the order,
	// of the sum and maximum a fold over every segment would take — and
	// the runs come in ascending street id.
	out := make([]CorridorResult, 0, len(covered))
	for i, j := 0, 0; i < len(covered); i = j {
		id := net.Segment(covered[i]).Street
		for j < len(covered) && net.Segment(covered[j]).Street == id {
			j++
		}
		var lenSum, maxI float64
		for n, sid := range covered[i:j] {
			lenSum += net.Segment(sid).Length()
			if v := interest(sid); n == 0 || v > maxI {
				maxI = v
			}
		}
		street := net.Street(id)
		coverage := lenSum / street.Length()
		score := coverage * maxI
		if score == 0 {
			continue
		}
		out = append(out, CorridorResult{
			Street:   id,
			Name:     street.Name,
			Coverage: coverage,
			Interest: maxI,
			Score:    score,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Street < out[j].Street
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
