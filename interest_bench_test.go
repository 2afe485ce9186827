package soi

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/network"
	"repro/internal/traj"
)

// trajBenchEps are the ε the route and trajectory benchmark draws from,
// the k-SOI sweep's three.
var trajBenchEps = []float64{0.00025, 0.0005, 0.001}

// trajBenchWorld is Berlin at scale 0.1 (4,385 segments) behind an
// engine, with a pool of route pairs — the farthest vertex within five
// mean segment lengths of a source, a budget 20 % over the shortest path,
// as traj_mix draws them — and a pool of eight-walk trace sets, each ε's
// plan built.
func trajBenchWorld(b *testing.B) (*Engine, []RouteQuery, []TrajectoryQuery, []string) {
	b.Helper()
	ds, err := datagen.Generate(datagen.Scale(datagen.Berlin(), 0.1))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngineFromCorpora(ds.Network, ds.POIs, ds.Photos, Config{})
	if err != nil {
		b.Fatal(err)
	}
	net, g := ds.Network, eng.trajGraphLazy()
	st := net.Stats()
	band := 5 * st.TotalLen / float64(st.NumSegments)
	zero := func(network.SegmentID) float64 { return 0 }
	var routes []RouteQuery
	for i := 0; len(routes) < 32; i++ {
		src := network.VertexID((uint64(i)*2654435761 + 97) % uint64(g.NumVertices()))
		best, bestD := src, 0.0
		for v, d := range g.Distances(src) {
			if d <= band && d > bestD {
				best, bestD = network.VertexID(v), d
			}
		}
		if bestD == 0 {
			continue
		}
		// Keep the pair only if searching its whole budget, with nothing
		// pruned by score, stays far below the expansion guard.
		tq := traj.RouteQuery{Src: src, Dst: best, K: 3, Budget: 1.2 * bestD}
		if _, st, err := traj.TopKRoutes(context.Background(), g, zero, tq, traj.SearchOptions{MaxExpansions: 20000}); err != nil || st.Completed == 0 {
			continue
		}
		s, d := net.Vertex(src), net.Vertex(best)
		routes = append(routes, RouteQuery{Src: Point{s.X, s.Y}, Dst: Point{d.X, d.Y}, K: 3, Budget: tq.Budget})
	}
	trajs := make([]TrajectoryQuery, 16)
	for j := range trajs {
		for _, tr := range datagen.Traces(net, int64(7000+j), 8) {
			pts := make([]Point, len(tr))
			for i, p := range tr {
				pts[i] = Point{p.X, p.Y}
			}
			trajs[j].Traces = append(trajs[j].Traces, pts)
		}
		trajs[j].K = 10
	}
	for _, eps := range trajBenchEps {
		eng.Warm(eps)
	}
	words := make([]string, ds.POIs.Dict().Len())
	for i := range words {
		words[i] = ds.POIs.Dict().Name(uint32(i))
	}
	return eng, routes, trajs, words
}

// BenchmarkTrajInterest times routes and trajectory SOI through the
// engine, alternating the two, to show what the interest memo is worth
// when requests repeat and what it costs when they do not:
//
//   - repeat draws each request from a seeded pool: 16 (Ψ, ε) over the
//     route and trace pools, as traj_mix redraws its tables;
//   - distinct gives every request a (Ψ, ε) no earlier one had — the
//     vocabulary's keyword pairs and triples crossed with the three ε —
//     so no (Ψ, ε, segment) repeats and every interest is folded.
//
// Besides ns/op it reports folds/op (interests computed, the memo's
// misses) and the memo's hit ratio.
func BenchmarkTrajInterest(b *testing.B) {
	eng, routes, trajs, words := trajBenchWorld(b)
	var keys [][]string
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			keys = append(keys, []string{words[i], words[j]})
			for k := j + 1; k < len(words); k++ {
				keys = append(keys, []string{words[i], words[j], words[k]})
			}
		}
	}
	rand.New(rand.NewSource(39)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	run := func(b *testing.B, key func(i int) ([]string, float64), pick func(i int) int) {
		before := eng.StatsSnapshot().Traj
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kws, eps := key(i)
			var err error
			if r := pick(i); i%2 == 0 {
				q := routes[r%len(routes)]
				q.Keywords, q.Epsilon = kws, eps
				_, err = eng.TopRoutes(q)
			} else {
				q := trajs[r%len(trajs)]
				q.Keywords, q.Epsilon = kws, eps
				_, err = eng.TrajectorySOI(q)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		after := eng.StatsSnapshot().Traj
		hits, misses := after.InterestMemoHits-before.InterestMemoHits, after.InterestMemoMisses-before.InterestMemoMisses
		b.ReportMetric(float64(misses)/float64(b.N), "folds/op")
		if hits+misses > 0 {
			b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
		}
	}
	b.Run("repeat", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		draws := make([][2]int, 4096)
		for i := range draws {
			draws[i] = [2]int{rng.Intn(16), rng.Intn(len(routes) * len(trajs))}
		}
		run(b, func(i int) ([]string, float64) {
			k := draws[i%len(draws)][0]
			return keys[k], trajBenchEps[k%len(trajBenchEps)]
		}, func(i int) int { return draws[i%len(draws)][1] })
	})
	// Distinct requests start past the keys repeat draws from, and each
	// run starts past the keys earlier runs used, so no run meets a
	// (Ψ, ε) the memo has seen.
	next := 16 * len(trajBenchEps)
	b.Run("distinct", func(b *testing.B) {
		base := next
		if next += b.N; next > len(keys)*len(trajBenchEps) {
			b.Fatalf("%d requests need more than the %d distinct (Ψ, ε)", b.N, len(keys)*len(trajBenchEps))
		}
		run(b, func(i int) ([]string, float64) {
			n := base + i
			return keys[n/len(trajBenchEps)], trajBenchEps[n%len(trajBenchEps)]
		}, func(i int) int { return i * 7 })
	})
}
