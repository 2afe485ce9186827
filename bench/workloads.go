package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/stats"
	"repro/internal/traj"
)

// topoKind is how a workload's servers are deployed.
type topoKind int

const (
	// topoIndex: soibuild writes a snapshot, one soiserve -index maps it.
	topoIndex topoKind = iota
	// topoLive: one soiserve -live generates the city and accepts writes.
	topoLive
	// topoSharded: soibuild -shards cuts the city into tiles, one
	// soishard per tile, one soiserve -shard-addrs coordinator in front.
	topoSharded
)

const (
	shardTiles = 4
	shardHalo  = 0.0012 // soibuild's default; above the sweep's largest ε
)

// workload is one traffic mix against one deployment.
type workload struct {
	name    string
	world   world
	topo    topoKind
	primary []opKind // the operations whose rate and latency are reported
	// oneCPU confines the driver and the servers to one CPU for the run.
	// For a workload whose requests cost a tenth of a millisecond: with
	// client and server on two virtual CPUs every hand-off between them
	// is a wake-up through the hypervisor, which took two thirds of the
	// round trip and came in two speeds that each last minutes (README.md,
	// "The sandbox"). One closed-loop client never needs both at once.
	oneCPU bool
	// plan derives the request streams and answer checks from the
	// regenerated world and the seed.
	plan func(ds *datagen.Dataset, seed int64) (*plan, error)
}

// plan is everything a run sends, rendered before the servers start.
type plan struct {
	// setupWarm is sent once, sequentially, as the last step of set-up:
	// it makes the servers build what they build lazily on first use
	// (the ε plans, the trajectory graph), so that work is charged to
	// setup_s rather than to whichever timed request arrives first.
	setupWarm []request
	// touches are sent once each before the timed phases (the hot set).
	touches []ksoiQuery
	seq     sequence
	// writes, when set, are the paced writer's batches.
	writes [][]poiBody
	// checks builds the answer checks once the run knows how many write
	// batches the server acknowledged.
	checks func(acked int) ([]check, error)
	// ksoi is the k-SOI query stream as the engine sees it in the
	// measured phase, for the traced run's cache replay.
	ksoi func(i int) ksoiQuery
}

// planWarmQueries are one cheap k-SOI query per ε of the sweep: the
// first query at an ε makes an index build that ε's plan.
func planWarmQueries() []ksoiQuery {
	var out []ksoiQuery
	for _, eps := range sweepEps {
		out = append(out, ksoiQuery{Keywords: []string{"shop"}, K: 1, Eps: eps})
	}
	return out
}

func planWarm() []request {
	var out []request
	for _, q := range planWarmQueries() {
		out = append(out, q.request())
	}
	return out
}

// coldChecks takes the answer-check sample from the tail of the cold
// stream, which no timed phase reaches.
func coldChecks(cs coldStream) []ksoiQuery {
	out := make([]ksoiQuery, 0, ksoiCheckQueries)
	for i := 0; i < ksoiCheckQueries && i < cs.seq.len(); i++ {
		out = append(out, cs.query(cs.seq.len()-1-i))
	}
	return out
}

func coldPlan(ds *datagen.Dataset, seed int64) (*plan, error) {
	cs := newColdStream(categories(ds.Profile), seed)
	return &plan{
		setupWarm: planWarm(),
		seq:       cs.seq,
		ksoi:      cs.query,
		checks: func(int) ([]check, error) {
			ix, err := referenceIndex(ds.Network, ds.POIs)
			if err != nil {
				return nil, err
			}
			return ksoiChecks(ix, coldChecks(cs)), nil
		},
	}, nil
}

func hotPlan(ds *datagen.Dataset, seed int64) (*plan, error) {
	hs, err := newHotStream(ds, seed)
	if err != nil {
		return nil, err
	}
	// The engine sees only the stream's k-SOI requests.
	var ksoi []uint32
	for _, idx := range hs.seq.order[:4096] {
		if int(idx) < len(hs.set) {
			ksoi = append(ksoi, idx)
		}
	}
	return &plan{
		setupWarm: planWarm(),
		touches:   hs.set,
		seq:       hs.seq,
		ksoi:      func(i int) ksoiQuery { return hs.set[ksoi[i]] },
		checks: func(int) ([]check, error) {
			ix, err := referenceIndex(ds.Network, ds.POIs)
			if err != nil {
				return nil, err
			}
			// An even sample of the popularity ranks; every answer
			// comes from the result cache.
			var qs []ksoiQuery
			for i := 0; i < ksoiCheckQueries; i++ {
				qs = append(qs, hs.set[i*len(hs.set)/ksoiCheckQueries])
			}
			return ksoiChecks(ix, qs), nil
		},
	}, nil
}

// trajWarm makes a server build what the trajectory endpoints build on
// first use: the search graph (first route query), each ε's segment→cell
// map (first query at that ε) and the map-matcher (first trajectory
// query).
func trajWarm(ts trajStream) []request {
	var out []request
	for _, eps := range sweepEps {
		rr := ts.routes[0]
		rr.Eps = eps
		out = append(out, postJSON(opRoutes, "/api/routes/topk", rr.K, rr))
	}
	return append(out, ts.seq.table[len(ts.routes)])
}

func trajPlan(ds *datagen.Dataset, seed int64) (*plan, error) {
	g := traj.NewGraph(ds.Network, traj.DefaultSnap(ds.Network))
	ts, err := newTrajStream(ds, g, seed)
	if err != nil {
		return nil, err
	}
	cs := newColdStream(categories(ds.Profile), seed)
	return &plan{
		setupWarm: append(planWarm(), trajWarm(ts)...),
		seq:       ts.seq,
		ksoi:      cs.query,
		checks: func(int) ([]check, error) {
			ix, err := referenceIndex(ds.Network, ds.POIs)
			if err != nil {
				return nil, err
			}
			out := routeChecks(ix, g, ts.routes[:trajCheckQueries])
			return append(out, trajSOIChecks(ix, ts.trajs[:trajCheckQueries])...), nil
		},
	}, nil
}

func ingestPlan(ds *datagen.Dataset, seed int64) (*plan, error) {
	cs := newColdStream(categories(ds.Profile), seed)
	writes := newWriteBatches(ds, seed)
	return &plan{
		setupWarm: planWarm(),
		seq:       cs.seq,
		ksoi:      cs.query,
		writes:    writes,
		checks: func(acked int) ([]check, error) {
			ix, err := referenceIndex(ds.Network, corpusWithWrites(ds, writes[:acked]))
			if err != nil {
				return nil, err
			}
			return ksoiChecks(ix, coldChecks(cs)), nil
		},
	}, nil
}

// workloads is the benchmark. Names are cited by BENCHMARK.json and by
// later changes' claims; the reasons are in BENCHMARK.json and
// README.md.
var workloads = []workload{
	{name: "ksoi_cold", world: world{"berlin", 0.25}, topo: topoIndex, primary: []opKind{opStreets}, plan: coldPlan},
	{name: "ksoi_hot", world: world{"berlin", 0.25}, topo: topoIndex, primary: []opKind{opStreets}, plan: hotPlan, oneCPU: true},
	{name: "traj_mix", world: world{"berlin", 0.25}, topo: topoIndex, primary: []opKind{opRoutes, opTrajSOI}, plan: trajPlan},
	{name: "ingest_mixed", world: world{"vienna", 0.1}, topo: topoLive, primary: []opKind{opStreets}, plan: ingestPlan},
	{name: "sharded_cold", world: world{"berlin", 0.25}, topo: topoSharded, primary: []opKind{opStreets}, plan: coldPlan},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// topology is a workload's running servers.
type topology struct {
	base     string // URL of the server the clients talk to
	children []*child
}

func (t *topology) stop() {
	for _, c := range t.children {
		c.stop()
	}
}

func (t *topology) pids() []int {
	out := make([]int, len(t.children))
	for i, c := range t.children {
		out[i] = c.cmd.Process.Pid
	}
	return out
}

// start performs one complete set-up: build the workload's artifacts,
// spawn every child on a free loopback port, wait for each /readyz, and
// send the plan's set-up requests. Its wall time is one setup_s sample.
func (w workload) start(ctx context.Context, e *env, client *http.Client, warm []request) (t *topology, err error) {
	t = &topology{}
	defer func() {
		if err != nil {
			t.stop()
		}
	}()
	add := func(name, binary string, args ...string) (*child, error) {
		c, err := e.spawn(w.name+"-"+name, binary, args...)
		if err != nil {
			return nil, err
		}
		t.children = append(t.children, c)
		return c, nil
	}
	var front *child
	switch w.topo {
	case topoIndex:
		snap := filepath.Join(e.scratch, w.name+".soi")
		if err := e.runTool(ctx, "soibuild", append(w.world.args(), "-out", snap)...); err != nil {
			return nil, err
		}
		if front, err = add("soiserve", "soiserve", "-index", snap); err != nil {
			return nil, err
		}
	case topoLive:
		if front, err = add("soiserve", "soiserve", append(w.world.args(), "-live")...); err != nil {
			return nil, err
		}
	case topoSharded:
		manifest := filepath.Join(e.scratch, w.name+".manifest.json")
		args := append(w.world.args(), "-shards", strconv.Itoa(shardTiles), "-halo", formatFloat(shardHalo), "-out", manifest)
		if err := e.runTool(ctx, "soibuild", args...); err != nil {
			return nil, err
		}
		var addrs []string
		for i := 0; i < shardTiles; i++ {
			c, err := add("soishard"+strconv.Itoa(i), "soishard", "-manifest", manifest, "-shard", strconv.Itoa(i))
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, c.addr)
		}
		for _, c := range t.children {
			if err := c.waitReady(ctx, client); err != nil {
				return nil, err
			}
		}
		if front, err = add("soiserve", "soiserve", "-shard-manifest", manifest, "-shard-addrs", strings.Join(addrs, ";")); err != nil {
			return nil, err
		}
	}
	if err := front.waitReady(ctx, client); err != nil {
		return nil, err
	}
	t.base = "http://" + front.addr
	var buf bytes.Buffer
	for _, r := range warm {
		status, err := exchange(ctx, client, t.base, r, &buf)
		if err == nil {
			err = validate(r, status, buf.Bytes())
		}
		if err != nil {
			return nil, fmt.Errorf("set-up request: %w", err)
		}
	}
	return t, nil
}

// setupRepeats is how many times a run sets its servers up; setup_s is
// the median. A single set-up is a sample of one, and it is the number
// that moves when work is shifted from the serving path into start-up.
const setupRepeats = 3

// observations are numbers a run prints beside its metrics: useful for
// reading a result, too workload-specific or too coarse to gate on.
type observations struct {
	lines []string
}

func (o *observations) addf(format string, args ...interface{}) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

func latenciesMillis(samples []sample, kinds ...opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, millis(s.lat))
			}
		}
	}
	return sortedCopy(out)
}

// runEndToEnd measures one workload over HTTP against real server
// processes, tracing off, and returns the end-to-end metrics.
func runEndToEnd(ctx context.Context, e *env, w workload, seed int64, measure time.Duration) (result, *observations, error) {
	obs := &observations{}
	if w.oneCPU {
		restore, err := pinToOneCPU()
		if err != nil {
			return result{}, nil, err
		}
		defer restore()
	}
	began := time.Now()
	ds, err := w.world.generate()
	if err != nil {
		return result{}, nil, err
	}
	pl, err := w.plan(ds, seed)
	if err != nil {
		return result{}, nil, err
	}
	planning := time.Since(began)
	client := newHTTPClient()
	defer client.CloseIdleConnections()

	// A set-up is calibrated by a block of slices before it and one after:
	// the client has no requests to put slices between.
	var topo *topology
	var setups, rawSetups []float64
	cal := newCalibrator()
	speedBefore := cal.block()
	for r := 0; r < setupRepeats; r++ {
		if topo != nil {
			topo.stop()
			client.CloseIdleConnections()
		}
		startedAt := time.Now()
		if topo, err = w.start(ctx, e, client, pl.setupWarm); err != nil {
			return result{}, nil, err
		}
		took := time.Since(startedAt).Seconds()
		speedAfter := cal.block()
		rawSetups = append(rawSetups, took)
		setups = append(setups, took/slowdown((speedBefore+speedAfter)/2))
		speedBefore = speedAfter
	}
	defer topo.stop()

	l := &load{client: client, base: topo.base, seq: pl.seq, pids: topo.pids(), measure: measure}
	for _, batch := range pl.writes {
		l.writes = append(l.writes, writeRequest(batch))
	}
	attempted, failed := 0, 0
	if len(pl.touches) > 0 {
		touches := make([]request, len(pl.touches))
		for i, q := range pl.touches {
			touches[i] = q.request()
		}
		attempted += len(touches)
		failed += l.sendAll(ctx, touches, nil)
	}
	before, err := fetchStats(ctx, client, topo.base)
	if err != nil {
		return result{}, nil, err
	}
	lr, err := l.run(ctx)
	if err != nil {
		return result{}, nil, err
	}
	if len(lr.cal.slices) == 0 {
		return result{}, nil, fmt.Errorf("%s: a measured phase of %v is too short to calibrate (one slice every %v)", w.name, measure, calEvery)
	}
	if lr.exhausted {
		return result{}, nil, fmt.Errorf("%s: the %d-request stream ran out before the measured phase ended; it is never wrapped into cache hits", w.name, pl.seq.len())
	}
	after, err := fetchStats(ctx, client, topo.base)
	if err != nil {
		return result{}, nil, err
	}
	rss := 0.0
	for _, pid := range topo.pids() {
		mb, err := peakRSSMB(pid)
		if err != nil {
			return result{}, nil, err
		}
		rss += mb
	}

	attempted += len(lr.samples)
	for _, s := range lr.samples {
		if !s.ok {
			failed++
		}
	}
	began = time.Now()
	checks, err := pl.checks(lr.acked)
	if err != nil {
		return result{}, nil, err
	}
	reqs := make([]request, len(checks))
	for i, c := range checks {
		reqs[i] = c.req
	}
	attempted += len(checks)
	failed += l.sendAll(ctx, reqs, func(i int, body []byte) error { return checks[i].verify(body) })
	if err := ctx.Err(); err != nil {
		return result{}, nil, err
	}
	checking := time.Since(began)
	if err := l.firstErr.Load(); err != nil {
		obs.addf("first failure: %v", *err)
	}

	primary := latenciesMillis(lr.samples, w.primary...)
	if len(primary) == 0 {
		return result{}, nil, fmt.Errorf("%s: no primary operation succeeded", w.name)
	}
	// Timings are reported as on the reference machine (calibrate.go).
	ops := float64(len(primary))
	clientTime := (measure - lr.cal.spent).Seconds()
	windows := int((measure + calWindow - 1) / calWindow)
	local := lr.cal.windowSlowdowns(lr.began, windows)
	// p50_ms is the median per kind of primary operation, averaged over
	// the kinds: the median of traj_mix's two kinds taken together would
	// sit in the gap between a fast and a slow one, where samples are few.
	p50 := 0.0
	for _, kind := range w.primary {
		var calibrated []float64
		for _, s := range lr.samples {
			if s.ok && s.kind == kind {
				calibrated = append(calibrated, millis(s.lat)/local[windowOf(s.at, windows)])
			}
		}
		p50 += median(calibrated) / float64(len(w.primary))
	}
	values := map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     ops / clientTime * lr.cal.meanSlowdown(),
		"p50_ms":        p50,
		"cpu_ms_per_op": lr.cpu * 1000 / ops / lr.cal.meanSlowdown(),
		"peak_rss_mb":   rss,
	}
	res, err := newResult(endToEndMetrics, values, attempted, failed)
	if err != nil {
		return result{}, nil, err
	}

	obs.addf("world %s: %d streets, %d segments, %d POIs; %d children; set-ups %.3v s as measured", w.world,
		ds.Network.NumStreets(), ds.Network.NumSegments(), ds.POIs.Len(), len(topo.children), rawSetups)
	obs.addf("machine: %d slices, slowdown %.3f (mean) against the %v reference, %.3f to %.3f by window; as measured: ops_per_s %.4f, cpu_ms_per_op %.4f, latencies below",
		len(lr.cal.slices), lr.cal.meanSlowdown(), calSliceReference, slices.Min(local), slices.Max(local),
		ops/measure.Seconds(), lr.cpu*1000/ops)
	obs.addf("primary samples %d over %.1f s; %d answer checks; driver spent %.2f s planning, %.2f s checking",
		len(primary), measure.Seconds(), len(checks), planning.Seconds(), checking.Seconds())
	obs.latencies(lr, primary)
	obs.serverCounters(before, after)
	return res, obs, nil
}

// latencies prints what the gated metrics leave out: the tail, each
// operation kind on its own, and how the paced writer fared.
func (o *observations) latencies(lr loadResult, primary []float64) {
	if p := highestPercentile(len(primary)); p > 0.5 {
		o.addf("tail: p%g_ms %.4f (the highest percentile with >= %d samples beyond it)", p*100, quantile(primary, p), minSamplesBeyond)
	}
	for k := opKind(0); k < numOps; k++ {
		if lat := latenciesMillis(lr.samples, k); len(lat) > 0 {
			o.addf("%-8s n=%-6d p50 %.4f ms  p95 %.4f ms", opNames[k], len(lat), quantile(lat, 0.5), quantile(lat, 0.95))
		}
	}
	var late []float64
	for _, s := range lr.samples {
		if s.kind == opWrite {
			late = append(late, millis(s.late))
		}
	}
	if len(late) > 0 {
		o.addf("writer: %d batches acknowledged, sent late by p50 %.3f ms max %.3f ms", lr.acked,
			median(late), quantile(sortedCopy(late), 1))
	}
}

// serverCounters prints what the front server's own /api/stats counted
// between the cache touches and the end of the measured phase.
func (o *observations) serverCounters(before, after stats.Snapshot) {
	eng0, eng1 := before.Engine, after.Engine
	if lookups := float64(eng1.ResultCacheHits+eng1.ResultCacheMisses) - float64(eng0.ResultCacheHits+eng0.ResultCacheMisses); lookups > 0 {
		o.addf("server engine: result-cache hit ratio %.4f, shed %d, queue-wait p95 <= %d us",
			float64(eng1.ResultCacheHits-eng0.ResultCacheHits)/lookups, eng1.Shed-eng0.Shed, eng1.QueueWait.P95Nano/1000)
	}
	if rem0, rem1 := before.Remote, after.Remote; rem1.Calls > rem0.Calls {
		calls := float64(rem1.Calls - rem0.Calls)
		o.addf("coordinator: %.3f attempts and %.4f hedges per shard call", float64(rem1.Attempts-rem0.Attempts)/calls,
			float64(rem1.HedgesStarted-rem0.HedgesStarted)/calls)
	}
}
