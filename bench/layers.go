package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	soi "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/diversify"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/ingest"
	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/traj"
	"repro/internal/vocab"
)

// Fixed operation counts of the traced run: counts (and every ratio of
// counters) repeat exactly from run to run with one seed.
const (
	tracedKSOI      = 64 // k-SOI queries of the core, engine and server passes
	tracedGather    = 32 // of which the shard and remote passes replay this many
	tracedTraj      = 48 // requests per trajectory endpoint
	tracedDescribes = 32
	tracedPublishes = 3
)

// traced is the state of one traced in-process run. One goroutine calls
// into each layer's public functions in turn, recording a span around
// every call; where one layer calls another inside the program (server
// → engine → core, coordinator → client → shard server) the nesting is
// obtained from outside, by running the inner layer on the same
// operation in a paired pass, or from the time the program itself
// reports (core.Stats), and recording it as a rebased child.
type traced struct {
	ctx  context.Context
	tr   *tracer
	ds   *datagen.Dataset
	seed int64
	vals map[string]float64
	obs  *observations

	attempted, failed int
}

// fail counts one operation whose outcome was wrong.
func (t *traced) fail(format string, args ...interface{}) {
	if t.failed == 0 {
		t.obs.addf("first failure: "+format, args...)
	}
	t.failed++
}

func sameStreets(a, b []core.StreetResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !sameBits(a[i].Interest, b[i].Interest) {
			return false
		}
	}
	return true
}

// prefix returns the first n queries of a k-SOI stream.
func prefix(next func(int) ksoiQuery, n int) []core.Query {
	out := make([]core.Query, n)
	for i := range out {
		out[i] = next(i).core()
	}
	return out
}

// mallocs returns the process's cumulative allocation count and bytes.
func mallocs() (count, bytes float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs), float64(m.TotalAlloc)
}

// serveRecorded runs one request through a handler in-process, timing
// only ServeHTTP.
func serveRecorded(h http.Handler, r request) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec, time.Since(start)
}

// runTraced runs the workload's world and request streams through every
// layer in-process and returns the per-layer metrics.
func runTraced(ctx context.Context, e *env, w workload, seed int64) (result, *observations, error) {
	ds, err := w.world.generate()
	if err != nil {
		return result{}, nil, err
	}
	pl, err := w.plan(ds, seed)
	if err != nil {
		return result{}, nil, err
	}
	t := &traced{ctx: ctx, tr: newTracer(), ds: ds, seed: seed, vals: map[string]float64{}, obs: &observations{}}
	began := time.Now()

	net, pois := ds.Network, ds.POIs
	cell := soi.DefaultCellSize
	build := t.tr.begin("bench.build", 0, mark{})

	// grid, then core on top of it. core.NewIndex builds its own grid
	// the same way, so the grid build is also recorded as its child.
	all := pois.All()
	pts := make([]geo.Point, len(all))
	keys := make([]vocab.Set, len(all))
	weights := make([]float64, len(all))
	for i := range all {
		pts[i], keys[i], weights[i] = all[i].Loc, all[i].Keywords, all[i].Weight
	}
	m := t.tr.begin("grid.build", 0, build)
	g, err := grid.Build(grid.Config{CellSize: cell}, pts, keys)
	if err == nil {
		_, err = grid.NewSlab(g, pts, weights)
	}
	gridTime := t.tr.end(m)
	if err != nil {
		return result{}, nil, err
	}
	t.vals["grid.build_ms"] = millis(gridTime)

	m = t.tr.begin("core.new_index", 0, build)
	ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: cell, Compact: true})
	t.vals["core.index_build_ms"] = millis(t.tr.end(m))
	if err != nil {
		return result{}, nil, err
	}
	t.tr.child(m, "grid.build", 0, gridTime)
	six := ix.SlabIndex()

	var planTime time.Duration
	for _, eps := range sweepEps {
		m = t.tr.begin("core.plan_warm", 0, build)
		six.Warm(eps)
		planTime += t.tr.end(m)
	}
	t.vals["core.plan_build_ms"] = millis(planTime) / float64(len(sweepEps))
	// The trajectory queries read the map layout's per-ε segment→cell
	// tables, which the servers build on first use; build them before
	// any timed pass.
	m = t.tr.begin("core.segment_cells", 0, build)
	for _, eps := range sweepEps {
		ix.SegmentCells(eps)
	}
	t.tr.end(m)

	// snapshot: write what soibuild writes, open it the way soiserve
	// -index does.
	snapPath := filepath.Join(e.scratch, w.name+".traced.soi")
	m = t.tr.begin("snapshot.write_file", 0, build)
	err = snapshot.WriteFile(snapPath, &snapshot.Snapshot{Net: net, POIs: pois, Photos: ds.Photos, Slab: six.Slab()})
	t.vals["snapshot.build_ms"] = millis(t.tr.end(m))
	if err != nil {
		return result{}, nil, err
	}
	st, err := os.Stat(snapPath)
	if err != nil {
		return result{}, nil, err
	}
	t.vals["snapshot.bytes_per_poi"] = ratio(float64(st.Size()), float64(pois.Len()))
	m = t.tr.begin("snapshot.open", 0, build)
	eng, err := soi.NewEngineFromSnapshot(snapPath, soi.Config{})
	t.vals["snapshot.open_ms"] = millis(t.tr.end(m))
	if err != nil {
		return result{}, nil, err
	}
	defer eng.Close()

	m = t.tr.begin("traj.new_graph", 0, build)
	tg := traj.NewGraph(net, traj.DefaultSnap(net))
	t.vals["traj.graph_build_ms"] = millis(t.tr.end(m))
	m = t.tr.begin("traj.new_matcher", 0, build)
	matcher := traj.NewMatcher(net, traj.DefaultSnap(net))
	t.vals["traj.matcher_build_ms"] = millis(t.tr.end(m))

	m = t.tr.begin("diversify.new_photo_index", 0, build)
	pix, err := diversify.NewPhotoIndex(ds.Photos, cell)
	t.vals["diversify.photo_index_build_ms"] = millis(t.tr.end(m))
	if err != nil {
		return result{}, nil, err
	}

	m = t.tr.begin("shard.partition", 0, build)
	sw, err := shard.Partition(net, pois, shard.Config{Tiles: shardTiles, Halo: shardHalo, CellSize: cell, Compact: true})
	t.vals["shard.partition_ms"] = millis(t.tr.end(m))
	if err != nil {
		return result{}, nil, err
	}
	t.tr.end(build)
	ts, err := newTrajStream(ds, tg, seed)
	if err != nil {
		return result{}, nil, err
	}

	cold := newColdStream(categories(ds.Profile), seed)
	queries := prefix(cold.query, min(tracedKSOI, cold.seq.len()))
	answers, coreTimes, err := t.corePasses(ix, queries)
	if err != nil {
		return result{}, nil, err
	}
	t.enginePasses(ix, queries, answers, pl)
	if err := t.serverPasses(eng, ix, tg, ts, queries, answers); err != nil {
		return result{}, nil, err
	}
	if err := t.diversifyPass(pix); err != nil {
		return result{}, nil, err
	}
	if err := t.trajPasses(ix, tg, matcher, ts); err != nil {
		return result{}, nil, err
	}
	if err := t.ingestPass(); err != nil {
		return result{}, nil, err
	}
	gather := queries[:min(tracedGather, len(queries))]
	single := median(durationsToMicros(coreTimes[:len(gather)]))
	if err := t.shardPass(sw, gather, answers, single); err != nil {
		return result{}, nil, err
	}
	if err := t.remotePasses(sw, gather, answers, single); err != nil {
		return result{}, nil, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, nil, err
	}

	tracePath := filepath.Join(e.logs, w.name+".trace.json")
	if err := t.tr.writeFile(tracePath, w.name, seed); err != nil {
		return result{}, nil, err
	}
	t.obs.addf("world %s: %d streets, %d segments, %d POIs, %d photos; one goroutine, %.1f s", w.world,
		net.NumStreets(), net.NumSegments(), pois.Len(), ds.Photos.Len(), time.Since(began).Seconds())
	t.obs.addf("%d spans written to %s", len(t.tr.spans), tracePath)
	self := selfByName(t.tr.spans)
	for _, name := range []string{"server.streets", "engine.do", "core.soi", "remote.top_k", "remote.hop", "traj.top_k_routes"} {
		if v := self[name]; len(v) > 0 {
			t.obs.addf("self time %-20s n=%-5d p50 %.1f us", name, len(v), median(v))
		}
	}
	res, err := newResult(perLayerMetrics, t.vals, t.attempted, t.failed)
	return res, t.obs, err
}

// corePasses times core.Index.SOIContext over the queries three times:
// untimed to fault everything in, traced, and with span recording off.
// The mass cache is fresh per pass, sized as the engine sizes it.
func (t *traced) corePasses(ix *core.Index, queries []core.Query) ([][]core.StreetResult, []time.Duration, error) {
	for _, q := range queries {
		if _, _, err := ix.SOIContext(t.ctx, q, core.CostAware, nil); err != nil {
			return nil, nil, err
		}
	}
	n := float64(len(queries))
	answers := make([][]core.StreetResult, len(queries))
	times := make([]time.Duration, len(queries))
	rec := stats.NewRecorder()
	var total core.Stats
	mc := core.NewMassCache(0)
	pass := t.tr.begin("bench.core_pass", 0, mark{})
	for i, q := range queries {
		m := t.tr.begin("core.soi", i+1, pass)
		res, st, err := ix.SOIContext(t.ctx, q, core.CostAware, mc)
		times[i] = t.tr.end(m)
		if err != nil {
			return nil, nil, err
		}
		answers[i] = res
		st.Record(rec)
		total.FilterTime += st.FilterTime
		total.RefineTime += st.RefineTime
		total.BuildListsTime += st.BuildListsTime
		total.CellAccesses += st.CellAccesses
		total.SegmentsSeen += st.SegmentsSeen
		total.TotalSegments += st.TotalSegments
	}
	tracedWall := t.tr.end(pass)

	t.tr.on = false
	mc = core.NewMassCache(0)
	allocs0, bytes0 := mallocs()
	pass = t.tr.begin("bench.core_pass", 0, mark{})
	for i, q := range queries {
		m := t.tr.begin("core.soi", i+1, pass)
		res, _, err := ix.SOIContext(t.ctx, q, core.CostAware, mc)
		t.tr.end(m)
		if err != nil {
			return nil, nil, err
		}
		t.attempted++
		if !sameStreets(res, answers[i]) {
			t.fail("core: query %d answered differently on its second pass", i)
		}
	}
	untracedWall := t.tr.end(pass)
	allocs1, bytes1 := mallocs()
	t.tr.on = true

	us := sortedCopy(durationsToMicros(times))
	t.vals["core.soi_p50_us"] = quantile(us, 0.50)
	t.vals["core.soi_p95_us"] = quantile(us, 0.95)
	t.vals["core.filter_share"] = ratio(float64(total.FilterTime), float64(total.Total()))
	t.vals["core.refine_share"] = ratio(float64(total.RefineTime), float64(total.Total()))
	t.vals["core.cells_popped_per_query"] = float64(total.CellAccesses) / n
	t.vals["core.segments_seen_ratio"] = ratio(float64(total.SegmentsSeen), float64(total.TotalSegments))
	cs := rec.Snapshot().Core
	t.vals["core.mass_cache_hit_ratio"] = ratio(float64(cs.MassCacheHits), float64(cs.MassCacheHits+cs.MassCacheMisses))
	t.vals["core.allocs_per_query"] = (allocs1 - allocs0) / n
	t.vals["core.bytes_per_query"] = (bytes1 - bytes0) / n
	t.vals["trace.overhead_ratio"] = ratio(float64(tracedWall), float64(untracedWall))
	return answers, times, nil
}

// enginePasses times engine.Executor.DoCtx on result-cache misses (its
// self time is the call minus the evaluation time core reports for that
// same call) and on hits, then replays the workload's own k-SOI stream
// through a fresh executor for the hit ratio its cache reaches.
func (t *traced) enginePasses(ix *core.Index, queries []core.Query, answers [][]core.StreetResult, pl *plan) {
	exec := engine.New(ix, engine.Config{Recorder: stats.NewRecorder()})
	overhead := make([]float64, len(queries))
	pass := t.tr.begin("bench.engine_pass", 0, mark{})
	for i, q := range queries {
		m := t.tr.begin("engine.do", i+1, pass)
		res := exec.DoCtx(t.ctx, q)
		d := t.tr.end(m)
		t.tr.child(m, "core.soi", i+1, res.Stats.Total())
		overhead[i] = micros(d - res.Stats.Total())
		t.attempted++
		if res.Err != nil || res.Cached || !sameStreets(res.Streets, answers[i]) {
			t.fail("engine: query %d: err %v, cached %v", i, res.Err, res.Cached)
		}
	}
	hits := make([]time.Duration, len(queries))
	for i, q := range queries {
		m := t.tr.begin("engine.do_hit", i+1, pass)
		res := exec.DoCtx(t.ctx, q)
		hits[i] = t.tr.end(m)
		t.attempted++
		if res.Err != nil || !res.Cached || !sameStreets(res.Streets, answers[i]) {
			t.fail("engine: repeated query %d: err %v, cached %v", i, res.Err, res.Cached)
		}
	}
	t.tr.end(pass)
	t.vals["engine.do_miss_overhead_us"] = median(overhead)
	t.vals["engine.do_hit_p50_us"] = median(durationsToMicros(hits))

	rec := stats.NewRecorder()
	replay := engine.New(ix, engine.Config{Recorder: rec})
	for _, q := range pl.touches {
		replay.DoCtx(t.ctx, q.core())
	}
	before := rec.Snapshot().Engine
	for _, q := range prefix(pl.ksoi, len(queries)) {
		t.attempted++
		if res := replay.DoCtx(t.ctx, q); res.Err != nil {
			t.fail("engine: replayed query: %v", res.Err)
		}
	}
	after := rec.Snapshot().Engine
	lookups := float64(after.ResultCacheHits+after.ResultCacheMisses) - float64(before.ResultCacheHits+before.ResultCacheMisses)
	t.vals["engine.result_cache_hit_ratio"] = ratio(float64(after.ResultCacheHits-before.ResultCacheHits), lookups)
}

// decodeStreets turns an /api/streets body into comparable results.
func decodeStreets(body []byte) ([]core.StreetResult, error) {
	var b streetsBody
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	out := make([]core.StreetResult, len(b.Streets))
	for i, s := range b.Streets {
		out[i] = core.StreetResult{Name: s.Name, Interest: s.Interest}
	}
	return out, nil
}

// serverPasses runs requests through server.Server.ServeHTTP on a
// recorder (no socket). The handler's own cost on /api/streets is its
// self time on a cached query: ServeHTTP minus the engine call it
// makes, measured by a paired call on the same query.
func (t *traced) serverPasses(eng *soi.Engine, ix *core.Index, tg *traj.Graph, ts trajStream, queries []core.Query, answers [][]core.StreetResult) error {
	for _, eps := range sweepEps {
		eng.Warm(eps)
	}
	srv := server.New(eng)
	reqs := make([]request, len(queries))
	for i, q := range queries {
		reqs[i] = ksoiQuery{Keywords: q.Keywords, K: q.K, Eps: q.Epsilon}.request()
	}
	pass := t.tr.begin("bench.server_pass", 0, mark{})
	for i, r := range reqs {
		rec, _ := serveRecorded(srv, r)
		t.attempted++
		got, err := decodeStreets(rec.Body.Bytes())
		if err == nil {
			err = validate(r, rec.Code, rec.Body.Bytes())
		}
		if err != nil || !sameStreets(got, answers[i]) {
			t.fail("server: /api/streets query %d: %v", i, err)
		}
	}
	overhead := make([]float64, len(queries))
	sizes := make([]float64, len(queries))
	for i, q := range queries {
		m := t.tr.begin("server.streets", i+1, pass)
		rec, _ := serveRecorded(srv, reqs[i])
		d := t.tr.end(m)
		start := time.Now()
		_, err := eng.TopStreetsCtx(t.ctx, soi.Query{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
		inner := time.Since(start)
		if err != nil {
			return err
		}
		t.tr.child(m, "soi.top_streets", i+1, inner)
		overhead[i] = micros(d - inner)
		sizes[i] = float64(rec.Body.Len())
	}
	t.vals["server.streets_overhead_us"] = median(overhead)
	t.vals["server.resp_bytes_p50"] = median(sizes)

	streets, err := describeStreets(t.ds)
	if err != nil {
		return err
	}
	dqs := describeQueries(streets)
	var describes []float64
	for i := 0; i < tracedDescribes; i++ {
		r := dqs[i*len(dqs)/tracedDescribes].request()
		m := t.tr.begin("server.describe", 0, pass)
		rec, _ := serveRecorded(srv, r)
		describes = append(describes, millis(t.tr.end(m)))
		t.attempted++
		if err := validate(r, rec.Code, rec.Body.Bytes()); err != nil {
			t.fail("server: %v", err)
		}
	}
	t.vals["server.describe_p50_ms"] = median(describes)

	for _, r := range trajWarm(ts) {
		serveRecorded(srv, r)
	}
	n := min(tracedTraj, len(ts.routes), len(ts.trajs))
	checks := append(routeChecks(ix, tg, ts.routes[:n]), trajSOIChecks(ix, ts.trajs[:n])...)
	latencies := make([]float64, len(checks))
	for i, c := range checks {
		m := t.tr.begin("server."+opNames[c.req.kind], 0, pass)
		rec, _ := serveRecorded(srv, c.req)
		latencies[i] = millis(t.tr.end(m))
		t.attempted++
		err := validate(c.req, rec.Code, rec.Body.Bytes())
		if err == nil {
			err = c.verify(rec.Body.Bytes())
		}
		if err != nil {
			t.fail("server: %s: %v", c.req.path, err)
		}
	}
	t.tr.end(pass)
	t.vals["server.routes_p50_ms"] = median(latencies[:n])
	t.vals["server.trajsoi_p50_ms"] = median(latencies[n:])
	return nil
}

// diversifyPass times Algorithm 2 alone on the describe grid's streets.
func (t *traced) diversifyPass(pix *diversify.PhotoIndex) error {
	streets, err := describeStreets(t.ds)
	if err != nil {
		return err
	}
	dqs := describeQueries(streets)
	var times []float64
	examined, pruned := 0, 0
	pass := t.tr.begin("bench.diversify_pass", 0, mark{})
	for i := 0; i < tracedDescribes; i++ {
		q := dqs[i*len(dqs)/tracedDescribes]
		st := t.ds.Network.StreetByName(q.Street)
		rs, maxD := pix.StreetPhotos(t.ds.Network, st.ID, soi.DefaultCellSize)
		dc, err := diversify.NewContext(rs, diversify.FreqFromPhotos(t.ds.Dict, rs), maxD, q.Rho)
		if err != nil {
			return err
		}
		m := t.tr.begin("diversify.st_rel_div", i+1, pass)
		res, err := dc.STRelDiv(diversify.Params{K: q.K, Lambda: q.Lambda, W: q.W, Rho: q.Rho})
		times = append(times, micros(t.tr.end(m)))
		if err != nil {
			return err
		}
		t.attempted++
		if len(res.Selected) != q.K {
			t.fail("diversify: %d photos selected for k=%d", len(res.Selected), q.K)
		}
		examined += res.Stats.CellsExamined
		pruned += res.Stats.CellsPruned
	}
	t.tr.end(pass)
	t.vals["diversify.summary_p50_us"] = median(times)
	t.vals["diversify.cells_pruned_ratio"] = ratio(float64(pruned), float64(examined))
	return nil
}

// trajPasses times the two trajectory queries directly. The interest
// function handed to the route search is wrapped in a span, so its
// share of the search is observed, not differenced.
func (t *traced) trajPasses(ix *core.Index, tg *traj.Graph, matcher *traj.Matcher, ts trajStream) error {
	var err error
	net := tg.Network()
	n := min(tracedTraj, len(ts.routes), len(ts.trajs))
	routeQueries := make([]traj.RouteQuery, n)
	for i, rr := range ts.routes[:n] {
		if routeQueries[i], err = (routeSpec{Src: rr.Src, Dst: rr.Dst, Budget: rr.Budget}).query(net, rr.K, rr.Alpha); err != nil {
			return err
		}
	}

	var times []float64
	var search, fold time.Duration
	var total traj.SearchStats
	pass := t.tr.begin("bench.traj_pass", 0, mark{})
	for i, rr := range ts.routes[:n] {
		interest := interestOf(ix, rr.Keywords, rr.Eps)
		m := t.tr.begin("traj.top_k_routes", i+1, pass)
		_, st, err := traj.TopKRoutes(t.ctx, tg, func(sid network.SegmentID) float64 {
			im := t.tr.begin("core.segment_interest", i+1, m)
			v := interest(sid)
			fold += t.tr.end(im)
			return v
		}, routeQueries[i], traj.SearchOptions{})
		d := t.tr.end(m)
		if err != nil {
			return err
		}
		t.attempted++
		search += d
		times = append(times, micros(d))
		total.Expansions += st.Expansions
		total.Generated += st.Generated
		total.PrunedBudget += st.PrunedBudget
		total.PrunedBound += st.PrunedBound
	}
	us := sortedCopy(times)
	t.vals["traj.routes_p50_us"] = quantile(us, 0.50)
	t.vals["traj.routes_p95_us"] = quantile(us, 0.95)
	t.vals["traj.interest_fold_share"] = ratio(float64(fold), float64(search))
	t.vals["traj.expansions_per_query"] = float64(total.Expansions) / float64(n)
	pruned := float64(total.PrunedBudget + total.PrunedBound)
	t.vals["traj.pruned_ratio"] = ratio(pruned, pruned+float64(total.Generated))

	// Allocations are counted on a pass of their own, without the
	// wrapper and its spans.
	allocs0, _ := mallocs()
	for i, rr := range ts.routes[:n] {
		if _, _, err := traj.TopKRoutes(t.ctx, tg, interestOf(ix, rr.Keywords, rr.Eps), routeQueries[i], traj.SearchOptions{}); err != nil {
			return err
		}
	}
	allocs1, _ := mallocs()
	t.vals["traj.routes_allocs_per_query"] = (allocs1 - allocs0) / float64(n)

	times = times[:0]
	points, matched := 0, 0
	for i, tq := range ts.trajs[:n] {
		traces := tq.points()
		m := t.tr.begin("traj.trajectory_soi", i+1, pass)
		_, st, err := traj.TrajectorySOI(t.ctx, matcher, interestOf(ix, tq.Keywords, tq.Eps),
			traj.TrajQuery{Traces: traces, K: tq.K, Radius: matcher.Radius()})
		times = append(times, micros(t.tr.end(m)))
		if err != nil {
			return err
		}
		t.attempted++
		points += st.TracePoints
		matched += st.Matched
	}
	t.tr.end(pass)
	t.vals["traj.trajsoi_p50_us"] = median(times)
	t.vals["traj.matched_ratio"] = ratio(float64(matched), float64(points))
	return nil
}

// ingestPass builds a live ingestor over the world's POIs and walks the
// write path: append a batch, publish an epoch, a few times over, then
// compact.
func (t *traced) ingestPass() error {
	dict := t.ds.POIs.Dict()
	base := make([]ingest.Delta, t.ds.POIs.Len())
	for i, p := range t.ds.POIs.All() {
		base[i] = ingest.Delta{Loc: p.Loc, Keywords: dict.Names(p.Keywords), Weight: p.Weight}
	}
	pass := t.tr.begin("bench.ingest_pass", 0, mark{})
	m := t.tr.begin("ingest.new", 0, pass)
	ing, err := ingest.New(t.ds.Network, base, ingest.Config{CellSize: soi.DefaultCellSize})
	t.tr.end(m)
	if err != nil {
		return err
	}
	defer ing.Close()
	var adds, publishes []float64
	peak := ing.LiveEpochs()
	for j, batch := range newWriteBatches(t.ds, t.seed)[:tracedPublishes] {
		deltas := make([]ingest.Delta, len(batch))
		for i, p := range batch {
			deltas[i] = ingest.Delta{Loc: geo.Pt(p.X, p.Y), Keywords: p.Keywords}
		}
		m = t.tr.begin("ingest.add_batch", j+1, pass)
		ing.AddBatch(deltas)
		adds = append(adds, micros(t.tr.end(m)))
		m = t.tr.begin("ingest.publish", j+1, pass)
		_, folded, err := ing.Publish()
		publishes = append(publishes, millis(t.tr.end(m)))
		if err != nil {
			return err
		}
		t.attempted++
		if folded != len(batch) {
			t.fail("ingest: publish folded %d of %d deltas", folded, len(batch))
		}
		peak = max(peak, ing.LiveEpochs())
	}
	m = t.tr.begin("ingest.compact", 0, pass)
	_, _, err = ing.Compact()
	t.vals["ingest.compact_ms"] = millis(t.tr.end(m))
	if err != nil {
		return err
	}
	peak = max(peak, ing.LiveEpochs())
	t.tr.end(pass)
	t.vals["ingest.add_batch_us"] = median(adds)
	t.vals["ingest.publish_p50_ms"] = median(publishes)
	t.vals["ingest.epochs_live_peak"] = float64(peak)
	return nil
}

// shardPass times the in-process scatter-gather coordinator; single is
// the single-index p50 on the same queries.
func (t *traced) shardPass(sw *shard.World, queries []core.Query, answers [][]core.StreetResult, single float64) error {
	coord := shard.NewCoordinator(sw)
	for _, q := range planWarmQueries() {
		if _, _, err := coord.TopK(t.ctx, q.core()); err != nil {
			return err
		}
	}
	var times []float64
	evaluated, total := 0, 0
	pass := t.tr.begin("bench.shard_pass", 0, mark{})
	allocs0, _ := mallocs()
	for i, q := range queries {
		m := t.tr.begin("shard.top_k", i+1, pass)
		res, gs, err := coord.TopK(t.ctx, q)
		times = append(times, micros(t.tr.end(m)))
		if err != nil {
			return err
		}
		t.attempted++
		if !sameStreets(res, answers[i]) {
			t.fail("shard: query %d differs from the single index", i)
		}
		evaluated += gs.ShardsEvaluated
		total += gs.ShardsTotal
	}
	allocs1, _ := mallocs()
	t.tr.end(pass)
	p50 := median(times)
	t.vals["shard.topk_p50_us"] = p50
	t.vals["shard.evaluated_ratio"] = ratio(float64(evaluated), float64(total))
	t.vals["shard.allocs_per_query"] = (allocs1 - allocs0) / float64(len(queries))
	t.vals["shard.inproc_vs_single_ratio"] = ratio(single, p50)
	return nil
}

// remotePasses serves every shard from an in-process remote.Server on a
// real loopback socket and times the remote coordinator over them; then
// one client hop at a time, paired with the same request served on a
// recorder, so that the hop's self time is what the wire adds.
func (t *traced) remotePasses(sw *shard.World, queries []core.Query, answers [][]core.StreetResult, single float64) error {
	var servers []*remote.Server
	var addrs [][]string
	for _, sh := range sw.Shards {
		// Every call must evaluate: the paired passes repeat queries.
		srv := remote.NewServer(remote.ShardData{
			ShardID: sh.ID, Shards: len(sw.Shards), TileX: sh.TileX, TileY: sh.TileY,
			Halo: sw.Halo, CellSize: sw.CellSize, Index: sh.Index, Streets: sh.Streets, Segments: sh.Segments,
		}, remote.ServerConfig{Engine: engine.Config{CacheSize: -1, MassCacheEntries: -1}})
		hs := httptest.NewServer(srv)
		defer hs.Close()
		servers = append(servers, srv)
		addrs = append(addrs, []string{hs.URL})
	}
	rec := stats.NewRecorder()
	client, err := remote.NewClient(remote.Config{Addrs: addrs, Recorder: rec})
	if err != nil {
		return err
	}
	defer client.Close()
	coord := shard.NewRemoteCoordinator(client, sw.Halo)
	for _, q := range planWarmQueries() {
		if _, _, err := coord.TopK(t.ctx, q.core(), false); err != nil {
			return err
		}
	}

	var times []float64
	before := rec.Snapshot().Remote
	pass := t.tr.begin("bench.remote_pass", 0, mark{})
	for i, q := range queries {
		m := t.tr.begin("remote.top_k", i+1, pass)
		res, g, err := coord.TopK(t.ctx, q, false)
		times = append(times, micros(t.tr.end(m)))
		if err != nil {
			return err
		}
		t.attempted++
		if g.Degraded || !sameStreets(res, answers[i]) {
			t.fail("remote: query %d differs from the single index (degraded %v)", i, g.Degraded)
		}
	}
	after := rec.Snapshot().Remote
	calls := float64(after.Calls - before.Calls)
	p50 := median(times)
	t.vals["remote.topk_p50_us"] = p50
	t.vals["remote.attempts_per_call"] = ratio(float64(after.Attempts-before.Attempts), calls)
	t.vals["remote.hedges_per_call"] = ratio(float64(after.HedgesStarted-before.HedgesStarted), calls)
	t.vals["remote.vs_single_ratio"] = ratio(single, p50)

	var hops, serves, wires, sizes []float64
	for i, q := range queries {
		sh := i % len(servers)
		m := t.tr.begin("remote.hop", i+1, pass)
		_, err := client.Query(t.ctx, sh, q)
		hop := t.tr.end(m)
		if err != nil {
			return err
		}
		r := postJSON(opStreets, "/shard/query", q.K, remote.QueryRequest{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
		rr, serve := serveRecorded(servers[sh], r)
		t.attempted++
		if rr.Code != http.StatusOK {
			t.fail("remote: shard %d answered %d on a recorder", sh, rr.Code)
		}
		t.tr.child(m, "remote.serve", i+1, serve)
		hops = append(hops, micros(hop))
		serves = append(serves, micros(serve))
		wires = append(wires, micros(hop-serve))
		sizes = append(sizes, float64(rr.Body.Len()))
	}
	t.tr.end(pass)
	t.vals["remote.hop_p50_us"] = median(hops)
	t.vals["remote.serve_p50_us"] = median(serves)
	t.vals["remote.wire_p50_us"] = median(wires)
	t.vals["remote.bytes_per_hop"] = mean(sizes)
	return nil
}
