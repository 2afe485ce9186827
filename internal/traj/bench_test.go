package traj

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/network"
)

// The benchmarks run on Berlin at a tenth of its volume (4,844 vertices,
// 4,385 segments) with the production index's segment interests. The
// short trips are the serving workload's shape — endpoints at most five
// mean segment lengths apart, budget 1.2× the shortest path — where the
// whole query is a few dozen microseconds. The long trips, at least
// twenty mean segment lengths apart, are the hard case: the budget ball
// is still a fraction of the network, but the loopless path space inside
// it grows exponentially, so most of them run into the expansion guard
// (capped here at benchLongMaxExpansions so one iteration stays in the
// milliseconds). Their expansions/op and guard-hit rate are reported
// beside the time: they are what a better bound would have to move.

const benchLongMaxExpansions = 50_000

type benchWorld struct {
	net      *network.Network
	g        *Graph
	interest InterestFunc
	meanLen  float64
	traces   [][]geo.Point
}

var (
	benchOnce sync.Once
	benchW    benchWorld
	benchErr  error
)

func berlinTenth(b *testing.B) benchWorld {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
		if err != nil {
			benchErr = err
			return
		}
		ix, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: 0.0005})
		if err != nil {
			benchErr = err
			return
		}
		set, _ := ds.POIs.Dict().LookupAll([]string{"shop", "food"})
		const eps = 0.0005
		ix.Warm(eps)
		st := ds.Network.Stats()
		benchW = benchWorld{
			net:      ds.Network,
			g:        NewGraph(ds.Network, DefaultSnap(ds.Network)),
			interest: func(sid network.SegmentID) float64 { return ix.SegmentInterest(sid, set, eps) },
			meanLen:  st.TotalLen / float64(st.NumSegments),
			traces:   datagen.Traces(ds.Network, 7, 8),
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchW
}

// benchPairs derives n queries from the world alone: for successive
// hashed sources, the farthest vertex whose shortest-path distance lies
// in [lo, hi] mean segment lengths.
func benchPairs(w benchWorld, lo, hi float64, n int) []RouteQuery {
	var out []RouteQuery
	nv := w.g.NumVertices()
	for i := 0; len(out) < n && i < 16*n; i++ {
		src := network.VertexID((uint64(i)*2654435761 + 97) % uint64(nv))
		best, bestD := src, 0.0
		for v, d := range w.g.Distances(src) {
			if d >= lo*w.meanLen && d <= hi*w.meanLen && d > bestD {
				best, bestD = network.VertexID(v), d
			}
		}
		if best != src {
			out = append(out, RouteQuery{Src: src, Dst: best, K: 3, Budget: 1.2 * bestD, Alpha: []float64{0, 1000}[len(out)%2]})
		}
	}
	return out
}

var benchSink int

func BenchmarkTopKRoutes(b *testing.B) {
	w := berlinTenth(b)
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		lo, hi float64
		opt    SearchOptions
	}{
		{"short", 1, 5, SearchOptions{}},
		{"long", 20, 24, SearchOptions{MaxExpansions: benchLongMaxExpansions}},
	} {
		b.Run(c.name, func(b *testing.B) {
			pairs := benchPairs(w, c.lo, c.hi, 16)
			if len(pairs) == 0 {
				b.Fatal("no vertex pair in the band")
			}
			var total SearchStats
			guard := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, st, err := TopKRoutes(ctx, w.g, w.interest, pairs[i%len(pairs)], c.opt)
				if errors.Is(err, ErrSearchBudget) {
					guard++
				} else if err != nil {
					b.Fatal(err)
				}
				benchSink += len(rs)
				total.Expansions += st.Expansions
				total.Settled += st.Settled
				total.SegmentsFolded += st.SegmentsFolded
			}
			b.ReportMetric(float64(total.Expansions)/float64(b.N), "expansions/op")
			b.ReportMetric(float64(total.Settled)/float64(b.N), "settled/op")
			b.ReportMetric(float64(total.SegmentsFolded)/float64(b.N), "folded/op")
			b.ReportMetric(float64(guard)/float64(b.N), "guard-hits/op")
		})
	}
}

func BenchmarkMatch(b *testing.B) {
	w := berlinTenth(b)
	m := NewMatcher(w.net, DefaultSnap(w.net))
	var pts []geo.Point
	for _, tr := range w.traces {
		pts = append(pts, tr...)
	}
	matched := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Match(pts[i%len(pts)]); ok {
			matched++
		}
	}
	b.ReportMetric(float64(matched)/float64(b.N), "matched/op")
}

// BenchmarkTrajectorySOI is the whole trajectory query the serving path
// runs: the eight traces matched at the default radius, the corridor
// folded through the production interests and ranked. covered/op is the
// corridor's size and folds/op the interest evaluations it cost.
func BenchmarkTrajectorySOI(b *testing.B) {
	w := berlinTenth(b)
	radius := DefaultSnap(w.net)
	m := NewMatcher(w.net, radius)
	folds := 0
	interest := func(sid network.SegmentID) float64 {
		folds++
		return w.interest(sid)
	}
	q := TrajQuery{Traces: w.traces, K: 10, Radius: radius}
	ctx := context.Background()
	covered := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, st, err := TrajectorySOI(ctx, m, interest, q)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(rs)
		covered += st.CoveredSegments
	}
	b.ReportMetric(float64(covered)/float64(b.N), "covered/op")
	b.ReportMetric(float64(folds)/float64(b.N), "folds/op")
}

func BenchmarkSnapVertex(b *testing.B) {
	w := berlinTenth(b)
	nb := w.net.Bounds()
	pts := make([]geo.Point, 1024)
	for i := range pts {
		// A low-discrepancy sweep of the network's bounding box.
		fx := math.Mod(float64(i)*0.6180339887498949, 1)
		fy := math.Mod(float64(i)*0.7548776662466927, 1)
		pts[i] = geo.Pt(nb.MinX+fx*(nb.MaxX-nb.MinX), nb.MinY+fy*(nb.MaxY-nb.MinY))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := w.g.SnapVertex(pts[i%len(pts)])
		benchSink += int(v)
	}
}
