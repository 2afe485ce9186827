package traj

import (
	"context"
	"fmt"
	"math"
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

// Validate reports whether the query is well formed.
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
	if len(q.Traces) == 0 {
		return fmt.Errorf("traj: no traces")
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
	// CoveredSegments counts distinct segments touched by any trace.
	CoveredSegments int
}

// Matcher snaps free points to their nearest street segment within a
// fixed radius, using a uniform grid of segment buckets so each lookup
// only scans nearby candidates. Matching is deterministic: the winner is
// the globally nearest segment within the radius, exact distance ties
// broken by the lowest segment id — identical to a full ascending scan
// over every segment, which is what the oracle does.
type Matcher struct {
	net     *network.Network
	radius  float64
	r2      float64
	cell    float64
	buckets map[matchCell][]network.SegmentID
}

type matchCell struct{ x, y int32 }

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
// cell their bounding box overlaps. A non-positive or NaN radius yields
// a matcher that matches nothing.
func NewMatcher(net *network.Network, radius float64) *Matcher {
	m := &Matcher{
		net:     net,
		radius:  radius,
		r2:      radius * radius,
		buckets: make(map[matchCell][]network.SegmentID),
	}
	if !(radius > 0) {
		return m
	}
	m.cell = radius
	nb := net.Bounds()
	if extent := math.Max(nb.MaxX-nb.MinX, nb.MaxY-nb.MinY); extent > 0 {
		if floor := extent / maxMatchCellsPerDim; m.cell < floor {
			m.cell = floor
		}
	}
	for i := range net.Segments() {
		seg := net.Segment(network.SegmentID(i))
		b := seg.Geom.Bounds()
		x0 := cellIndex(b.MinX / m.cell)
		x1 := cellIndex(b.MaxX / m.cell)
		y0 := cellIndex(b.MinY / m.cell)
		y1 := cellIndex(b.MaxY / m.cell)
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				k := matchCell{x, y}
				m.buckets[k] = append(m.buckets[k], network.SegmentID(i))
			}
		}
	}
	return m
}

// cellIndex converts a scaled coordinate to a grid index, clamping just
// inside the int32 range instead of relying on Go's
// implementation-defined overflowing float→int conversion. Staying one
// off the extremes keeps the bucket-fill loop's x++ and the 3×3
// lookup's ±1 neighbor arithmetic from wrapping. Clamping is monotone,
// so two values within one cell of each other still land at most one
// index apart — the property the 3×3 lookup needs.
func cellIndex(v float64) int32 {
	switch {
	case math.IsNaN(v):
		return 0
	case v <= math.MinInt32+1:
		return math.MinInt32 + 1
	case v >= math.MaxInt32-1:
		return math.MaxInt32 - 1
	}
	return int32(math.Floor(v))
}

// Radius returns the matcher's snap radius.
func (m *Matcher) Radius() float64 { return m.radius }

// Match snaps p to the nearest segment within the radius. The boolean is
// false when no segment is close enough. The nine buckets around the
// point are walked in place — no candidate list, no sort, no allocation
// — and the winner is chosen by the explicit (squared distance, segment
// id) order, which a segment bucketed in several of the nine cells
// cannot disturb: meeting it again neither improves the distance nor
// lowers the id.
func (m *Matcher) Match(p geo.Point) (network.SegmentID, bool) {
	if !(m.radius > 0) {
		return 0, false
	}
	cx := cellIndex(p.X / m.cell)
	cy := cellIndex(p.Y / m.cell)
	var (
		best   network.SegmentID
		bestD2 = math.Inf(1)
	)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for _, sid := range m.buckets[matchCell{cx + dx, cy + dy}] {
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
// truncated to K.
func TrajectorySOI(ctx context.Context, m *Matcher, interest InterestFunc, q TrajQuery) ([]CorridorResult, MatchStats, error) {
	var st MatchStats
	if err := q.Validate(); err != nil {
		return nil, st, err
	}
	if q.Radius != m.radius {
		return nil, st, fmt.Errorf("traj: query radius %v does not match matcher radius %v", q.Radius, m.radius)
	}
	covered := make([]bool, m.net.NumSegments())
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
				covered[sid] = true
			}
		}
	}
	results := CorridorRanking(m.net, covered, interest, q.K, &st)
	return results, st, nil
}

// CorridorRanking turns a covered-segment set into the canonical street
// ranking. It is shared by the pruned implementation and the oracle so
// the aggregation arithmetic — the part both sides must agree on given
// the same corridor and interests — is computed one way only; the
// differential then isolates disagreements to matching and interest
// provenance. stats may be nil.
func CorridorRanking(net *network.Network, covered []bool, interest InterestFunc, k int, stats *MatchStats) []CorridorResult {
	type agg struct {
		street  network.StreetID
		lenSum  float64
		maxI    float64
		touched bool
	}
	perStreet := make([]agg, net.NumStreets())
	// Ascending segment id: float sums and max tie-breaks are ordered.
	for sid := 0; sid < net.NumSegments(); sid++ {
		if !covered[sid] {
			continue
		}
		if stats != nil {
			stats.CoveredSegments++
		}
		seg := net.Segment(network.SegmentID(sid))
		a := &perStreet[seg.Street]
		a.street = seg.Street
		a.lenSum += seg.Length()
		if i := interest(network.SegmentID(sid)); !a.touched || i > a.maxI {
			a.maxI = i
		}
		a.touched = true
	}
	var out []CorridorResult
	for id := range perStreet {
		a := &perStreet[id]
		if !a.touched {
			continue
		}
		street := net.Street(network.StreetID(id))
		coverage := a.lenSum / street.Length()
		score := coverage * a.maxI
		if score == 0 {
			continue
		}
		out = append(out, CorridorResult{
			Street:   network.StreetID(id),
			Name:     street.Name,
			Coverage: coverage,
			Interest: a.maxI,
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
