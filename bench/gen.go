package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	soi "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/diversify"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/traj"
)

// opKind classifies a request by the endpoint it exercises; latencies
// are kept per kind so a mixed workload can report its primary
// operation and print the others beside it.
type opKind uint8

const (
	opStreets opKind = iota
	opDescribe
	opRoutes
	opTrajSOI
	opWrite
	numOps
)

var opNames = [numOps]string{"streets", "describe", "routes", "trajsoi", "write"}

// request is one HTTP request of a workload, fully rendered before the
// timed phase so the clients do no generation work while measuring.
type request struct {
	kind   opKind
	method string
	path   string // path and query
	body   []byte
	rows   int // most rows a correct answer may hold (the query's k)
}

// sequence is a request stream: order indexes into a table of distinct
// requests, so a long stream over few distinct requests (the hot
// workload) costs four bytes per position.
type sequence struct {
	table []request
	order []uint32
}

func (s sequence) len() int { return len(s.order) }

func (s sequence) at(i int) request { return s.table[s.order[i]] }

// The k-SOI parameter sweep: every non-empty keyword subset × k × ε, the
// paper's Section 5 dimensions. With the 8 generated categories that is
// 255 × 8 × 3 = 6,120 distinct queries, six times the servers' default
// 1,024-entry result cache.
var (
	sweepK   = []int{1, 3, 5, 10, 20, 30, 50, 100}
	sweepEps = []float64{0.00025, 0.0005, 0.001}
)

type ksoiQuery struct {
	Keywords []string
	K        int
	Eps      float64
}

func (q ksoiQuery) core() core.Query {
	return core.Query{Keywords: q.Keywords, K: q.K, Epsilon: q.Eps}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (q ksoiQuery) request() request {
	v := url.Values{}
	v.Set("keywords", strings.Join(q.Keywords, ","))
	v.Set("k", strconv.Itoa(q.K))
	v.Set("eps", formatFloat(q.Eps))
	return request{kind: opStreets, method: http.MethodGet, path: "/api/streets?" + v.Encode(), rows: q.K}
}

// keywordSubsets lists every non-empty subset of cats, by ascending mask.
func keywordSubsets(cats []string) [][]string {
	var out [][]string
	for mask := 1; mask < 1<<len(cats); mask++ {
		var kws []string
		for b, c := range cats {
			if mask&(1<<b) != 0 {
				kws = append(kws, c)
			}
		}
		out = append(out, kws)
	}
	return out
}

// enumerateKSOI lists the whole sweep in canonical order.
func enumerateKSOI(cats []string) []ksoiQuery {
	var out []ksoiQuery
	for _, kws := range keywordSubsets(cats) {
		for _, k := range sweepK {
			for _, eps := range sweepEps {
				out = append(out, ksoiQuery{Keywords: kws, K: k, Eps: eps})
			}
		}
	}
	return out
}

// coldStream is the sweep in a seeded order, each query exactly once:
// no request can be answered from the result cache, and a run that
// drains it stops instead of wrapping into cache hits.
//
// The order is stratified: the stream is a sequence of blocks, each
// holding one query per (k, ε) pair in a shuffled order, and the seed
// decides which keyword subset goes with each. A run sends a few hundred
// of the 6,120 queries; k and ε set most of a query's cost, so a plain
// shuffle would hand different seeds noticeably cheaper or dearer
// samples, and the benchmark would measure the draw.
type coldStream struct {
	seq     sequence
	queries []ksoiQuery // queries[i] rendered seq.table[i]
}

func newColdStream(cats []string, seed int64) coldStream {
	qs := enumerateKSOI(cats)
	cs := coldStream{queries: qs}
	cs.seq.table = make([]request, len(qs))
	for i, q := range qs {
		cs.seq.table[i] = q.request()
	}
	// enumerateKSOI puts the query of subset s and pair p at s*pairs+p.
	pairs := len(sweepK) * len(sweepEps)
	subsets := len(qs) / pairs
	rng := rand.New(rand.NewSource(seed))
	subsetOf := make([][]int, pairs)
	for p := range subsetOf {
		subsetOf[p] = rng.Perm(subsets)
	}
	cs.seq.order = make([]uint32, 0, len(qs))
	for block := 0; block < subsets; block++ {
		for _, p := range rng.Perm(pairs) {
			cs.seq.order = append(cs.seq.order, uint32(subsetOf[p][block]*pairs+p))
		}
	}
	return cs
}

// query returns the i-th query of the stream.
func (cs coldStream) query(i int) ksoiQuery { return cs.queries[cs.seq.order[i]] }

// The hot workload's shape. The hot set and its popularity ranks are a
// function of the world alone: were they drawn per seed, the k (and so
// the response size) of the few top-ranked queries would differ from
// seed to seed and dominate the run-to-run spread. The seed drives the
// draws.
const (
	hotSetSize    = 256
	hotSetSeed    = 0x5017
	hotZipfS      = 1.1
	hotStreamLen  = 1 << 19 // ~50K requests/s for a 10 s run; far beyond two cores
	describeEvery = 10      // every 10th request is a describe
)

type hotStream struct {
	seq sequence
	set []ksoiQuery // the hot set by popularity rank; seq.table[:len(set)]
}

// describeStreets returns the streets a describe request may name: the
// world's photo street and planted shopping streets that have enough
// photos within ε for every k the requests use, so no describe fails.
func describeStreets(ds *datagen.Dataset) ([]string, error) {
	pix, err := diversify.NewPhotoIndex(ds.Photos, soi.DefaultCellSize)
	if err != nil {
		return nil, err
	}
	maxK := describeK[len(describeK)-1]
	seen := map[string]bool{}
	var out []string
	for _, name := range append([]string{ds.Truth.PhotoStreet}, ds.Truth.ShoppingStreets...) {
		st := ds.Network.StreetByName(name)
		if st == nil || seen[name] {
			continue
		}
		seen[name] = true
		if rs, _ := pix.StreetPhotos(ds.Network, st.ID, soi.DefaultCellSize); len(rs) >= 2*maxK {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no street of %s has photos to describe", ds.Profile.Name)
	}
	return out, nil
}

// The describe parameter grid: (k, λ, w, ρ) varied per request. The
// server keeps no summary cache, so every describe runs Algorithm 2.
var (
	describeK      = []int{3, 4, 5, 6, 8}
	describeLambda = []float64{0.3, 0.5, 0.7}
	describeW      = []float64{0.3, 0.5, 0.7}
	describeRho    = []float64{0.0001, 0.0002}
)

// describeQuery is one /api/describe request.
type describeQuery struct {
	Street         string
	K              int
	Lambda, W, Rho float64
}

func (q describeQuery) request() request {
	v := url.Values{}
	v.Set("street", q.Street)
	v.Set("k", strconv.Itoa(q.K))
	v.Set("lambda", formatFloat(q.Lambda))
	v.Set("w", formatFloat(q.W))
	v.Set("rho", formatFloat(q.Rho))
	return request{kind: opDescribe, method: http.MethodGet, path: "/api/describe?" + v.Encode(), rows: q.K}
}

// describeQueries lists the whole grid for every street.
func describeQueries(streets []string) []describeQuery {
	var out []describeQuery
	for _, name := range streets {
		for _, k := range describeK {
			for _, l := range describeLambda {
				for _, w := range describeW {
					for _, rho := range describeRho {
						out = append(out, describeQuery{Street: name, K: k, Lambda: l, W: w, Rho: rho})
					}
				}
			}
		}
	}
	return out
}

func newHotStream(ds *datagen.Dataset, seed int64) (hotStream, error) {
	all := enumerateKSOI(categories(ds.Profile))
	rand.New(rand.NewSource(hotSetSeed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	n := hotSetSize
	if n > len(all) {
		n = len(all)
	}
	hs := hotStream{set: all[:n]}
	for _, q := range hs.set {
		hs.seq.table = append(hs.seq.table, q.request())
	}
	streets, err := describeStreets(ds)
	if err != nil {
		return hotStream{}, err
	}
	describes := describeQueries(streets)
	for _, q := range describes {
		hs.seq.table = append(hs.seq.table, q.request())
	}

	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(n-1))
	hs.seq.order = make([]uint32, hotStreamLen)
	for i := range hs.seq.order {
		if i%describeEvery == describeEvery-1 {
			hs.seq.order[i] = uint32(n + rng.Intn(len(describes)))
		} else {
			hs.seq.order[i] = uint32(zipf.Uint64())
		}
	}
	return hs, nil
}

// routeSpec is one source/destination pair of the route workload with
// the walking budget that goes with it.
type routeSpec struct {
	Src, Dst [2]float64
	Budget   float64
}

// Route pool shape, after cmd/soibench/trajbench.go: the destination is
// the farthest vertex within routeBand mean segment lengths of the
// source and the budget leaves 20% slack over the shortest path. A pair
// is kept only if an exhaustive search of its budget (zero interest
// everywhere: nothing is pruned by score) stays under
// routeMaxExpansions, far below the server's 500,000-expansion guard,
// so no generated query can fail with ErrSearchBudget.
const (
	routeBand          = 5.0
	routeBudgetSlack   = 1.2
	routeMaxExpansions = 20000
	routePoolSize      = 128
	tracePoolSize      = 64
	tracesPerRequest   = 8
	routeTableSize     = 1024
	trajTableSize      = 256
	trajStreamLen      = 1 << 16
)

// routePool derives the pairs from the world alone (see hotSetSeed for
// why not from the seed).
func routePool(g *traj.Graph) ([]routeSpec, error) {
	net := g.Network()
	nv := g.NumVertices()
	if nv < 2 {
		return nil, fmt.Errorf("network has %d vertices", nv)
	}
	st := net.Stats()
	band := routeBand * st.TotalLen / float64(st.NumSegments)
	zero := func(network.SegmentID) float64 { return 0 }
	var pool []routeSpec
	for i := 0; len(pool) < routePoolSize && i < 16*routePoolSize; i++ {
		src := network.VertexID((uint64(i)*2654435761 + 97) % uint64(nv))
		best, bestD := network.VertexID(0), -1.0
		for v, d := range g.Distances(src) {
			if network.VertexID(v) == src || d > band {
				continue
			}
			if d > bestD {
				best, bestD = network.VertexID(v), d
			}
		}
		if bestD <= 0 {
			continue
		}
		spec := routeSpec{Budget: routeBudgetSlack * bestD}
		sp, dp := net.Vertex(src), net.Vertex(best)
		spec.Src, spec.Dst = [2]float64{sp.X, sp.Y}, [2]float64{dp.X, dp.Y}
		// The server snaps the coordinates back to vertices; validate
		// the query it will actually run.
		q, err := spec.query(net, 3, 0)
		if err != nil {
			return nil, err
		}
		_, stats, err := traj.TopKRoutes(context.Background(), g, zero, q, traj.SearchOptions{MaxExpansions: routeMaxExpansions})
		if err != nil || stats.Completed == 0 {
			continue
		}
		pool = append(pool, spec)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("no usable source/destination pair")
	}
	return pool, nil
}

// query snaps the spec to vertices the way the engine does.
func (s routeSpec) query(net *network.Network, k int, alpha float64) (traj.RouteQuery, error) {
	src, ok := traj.NearestVertex(net, geo.Pt(s.Src[0], s.Src[1]))
	if !ok {
		return traj.RouteQuery{}, fmt.Errorf("empty network")
	}
	dst, _ := traj.NearestVertex(net, geo.Pt(s.Dst[0], s.Dst[1]))
	return traj.RouteQuery{Src: src, Dst: dst, K: k, Budget: s.Budget, Alpha: alpha}, nil
}

// routeRequest and trajRequest are the JSON bodies of the two
// trajectory endpoints (internal/server/traj.go).
type routeRequest struct {
	Src      [2]float64 `json:"src"`
	Dst      [2]float64 `json:"dst"`
	Keywords []string   `json:"keywords"`
	K        int        `json:"k"`
	Eps      float64    `json:"eps"`
	Budget   float64    `json:"budget"`
	Alpha    float64    `json:"alpha"`
}

type trajRequest struct {
	Traces   [][][2]float64 `json:"traces"`
	Keywords []string       `json:"keywords"`
	K        int            `json:"k"`
	Eps      float64        `json:"eps"`
}

// points converts the request's traces to the query layer's form.
func (tr trajRequest) points() [][]geo.Point {
	out := make([][]geo.Point, len(tr.Traces))
	for i, trace := range tr.Traces {
		for _, p := range trace {
			out[i] = append(out[i], geo.Pt(p[0], p[1]))
		}
	}
	return out
}

func postJSON(kind opKind, path string, rows int, v interface{}) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of finite floats always encode
	}
	return request{kind: kind, method: http.MethodPost, path: path, body: body, rows: rows}
}

// routeAlphas are the travel-cost weights: interest only, and a weight
// large enough to reorder routes of similar interest.
var routeAlphas = []float64{0, 1000}

const (
	routeK   = 3
	trajSOIK = 10
)

// trajStream alternates the two trajectory endpoints. Neither is
// cached by the server, so the stream may revisit a request.
type trajStream struct {
	seq    sequence
	routes []routeRequest // routes[i] rendered seq.table[i]
	trajs  []trajRequest  // trajs[i] rendered seq.table[len(routes)+i]
}

func newTrajStream(ds *datagen.Dataset, g *traj.Graph, seed int64) (trajStream, error) {
	pool, err := routePool(g)
	if err != nil {
		return trajStream{}, err
	}
	traces := make([][][][2]float64, tracePoolSize)
	for j := range traces {
		for _, tr := range datagen.Traces(ds.Network, int64(7000+j), tracesPerRequest) {
			pts := make([][2]float64, len(tr))
			for i, p := range tr {
				pts[i] = [2]float64{p.X, p.Y}
			}
			traces[j] = append(traces[j], pts)
		}
	}
	subsets := keywordSubsets(categories(ds.Profile))
	rng := rand.New(rand.NewSource(seed))
	var ts trajStream
	for i := 0; i < routeTableSize; i++ {
		spec := pool[rng.Intn(len(pool))]
		rr := routeRequest{
			Src: spec.Src, Dst: spec.Dst, Budget: spec.Budget,
			Keywords: subsets[rng.Intn(len(subsets))],
			K:        routeK,
			Eps:      sweepEps[rng.Intn(len(sweepEps))],
			Alpha:    routeAlphas[rng.Intn(len(routeAlphas))],
		}
		ts.routes = append(ts.routes, rr)
		ts.seq.table = append(ts.seq.table, postJSON(opRoutes, "/api/routes/topk", rr.K, rr))
	}
	for i := 0; i < trajTableSize; i++ {
		tr := trajRequest{
			Traces:   traces[rng.Intn(len(traces))],
			Keywords: subsets[rng.Intn(len(subsets))],
			K:        trajSOIK,
			Eps:      sweepEps[rng.Intn(len(sweepEps))],
		}
		ts.trajs = append(ts.trajs, tr)
		ts.seq.table = append(ts.seq.table, postJSON(opTrajSOI, "/api/trajectories/soi", tr.K, tr))
	}
	ts.seq.order = make([]uint32, trajStreamLen)
	for i := range ts.seq.order {
		if i%2 == 0 {
			ts.seq.order[i] = uint32(rng.Intn(routeTableSize))
		} else {
			ts.seq.order[i] = uint32(routeTableSize + rng.Intn(trajTableSize))
		}
	}
	return ts, nil
}

// poiBody and poisRequest are the JSON body of POST /api/pois
// (internal/server/server.go).
type poiBody struct {
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords"`
}

type poisRequest struct {
	POIs    []poiBody `json:"pois"`
	Publish bool      `json:"publish"`
}

const (
	writeBatchSize = 100
	writeBatches   = 256 // two minutes of writes at one per writeInterval
)

// newWriteBatches draws the writer's batches: POIs uniform over the
// network's extent with one or two generated categories each.
func newWriteBatches(ds *datagen.Dataset, seed int64) [][]poiBody {
	b := ds.Network.Bounds()
	cats := categories(ds.Profile)
	rng := rand.New(rand.NewSource(seed ^ 0x77726974))
	out := make([][]poiBody, writeBatches)
	for j := range out {
		batch := make([]poiBody, writeBatchSize)
		for i := range batch {
			kws := []string{cats[rng.Intn(len(cats))]}
			if rng.Intn(2) == 0 {
				if second := cats[rng.Intn(len(cats))]; second != kws[0] {
					kws = append(kws, second)
				}
			}
			batch[i] = poiBody{
				X:        b.MinX + rng.Float64()*b.Width(),
				Y:        b.MinY + rng.Float64()*b.Height(),
				Keywords: kws,
			}
		}
		out[j] = batch
	}
	return out
}

func writeRequest(batch []poiBody) request {
	return postJSON(opWrite, "/api/pois", 0, poisRequest{POIs: batch, Publish: true})
}
