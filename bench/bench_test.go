package main

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/traj"
)

var smallWorld = world{city: "small", scale: 1}

// digest renders the first n requests as bytes; equal digests mean
// byte-identical request streams.
func (s sequence) digest(n int) []byte {
	var b strings.Builder
	for i := 0; i < n && i < s.len(); i++ {
		r := s.at(i)
		fmt.Fprintf(&b, "%s %s %s\n", r.method, r.path, r.body)
	}
	return []byte(b.String())
}

func TestColdStreamIsSeededAndNeverRepeats(t *testing.T) {
	p, err := smallWorld.profile()
	if err != nil {
		t.Fatal(err)
	}
	cats := categories(p)
	a, b, c := newColdStream(cats, 7), newColdStream(cats, 7), newColdStream(cats, 8)
	if n := a.seq.len(); n != 255*len(sweepK)*len(sweepEps) {
		t.Fatalf("cold stream has %d requests", n)
	}
	if !bytes.Equal(a.seq.digest(a.seq.len()), b.seq.digest(b.seq.len())) {
		t.Error("same seed gave different request streams")
	}
	if bytes.Equal(a.seq.digest(a.seq.len()), c.seq.digest(c.seq.len())) {
		t.Error("different seeds gave the same request stream")
	}
	// Every block holds each (k, ε) pair once, whatever the seed.
	pairs := len(sweepK) * len(sweepEps)
	for block := 0; block < a.seq.len()/pairs; block++ {
		inBlock := map[[2]float64]bool{}
		for i := block * pairs; i < (block+1)*pairs; i++ {
			q := a.query(i)
			inBlock[[2]float64{float64(q.K), q.Eps}] = true
		}
		if len(inBlock) != pairs {
			t.Fatalf("block %d holds %d of the %d (k, eps) pairs", block, len(inBlock), pairs)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < a.seq.len(); i++ {
		r := a.seq.at(i)
		if seen[r.path] {
			t.Fatalf("request %d repeats %s", i, r.path)
		}
		seen[r.path] = true
		if r.path != a.query(i).request().path {
			t.Fatalf("query(%d) does not describe request %d", i, i)
		}
	}
}

func TestHotAndTrajStreamsAreSeeded(t *testing.T) {
	ds, err := smallWorld.generate()
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	hot := func(seed int64) hotStream {
		hs, err := newHotStream(ds, seed)
		if err != nil {
			t.Fatal(err)
		}
		return hs
	}
	a, b, c := hot(1), hot(1), hot(2)
	if !bytes.Equal(a.seq.digest(n), b.seq.digest(n)) || bytes.Equal(a.seq.digest(n), c.seq.digest(n)) {
		t.Error("hot stream is not a pure function of the seed")
	}
	// The hot set itself belongs to the world, not to the seed.
	if a.set[0].request().path != c.set[0].request().path {
		t.Error("hot set depends on the seed")
	}
	describes := 0
	for i := 0; i < n; i++ {
		if r := a.seq.at(i); r.kind == opDescribe {
			describes++
		} else if int(a.seq.order[i]) >= len(a.set) {
			t.Fatalf("request %d is neither a describe nor in the hot set", i)
		}
	}
	if describes != n/describeEvery {
		t.Errorf("%d describes in %d requests", describes, n)
	}

	g := traj.NewGraph(ds.Network, traj.DefaultSnap(ds.Network))
	tj := func(seed int64) trajStream {
		ts, err := newTrajStream(ds, g, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	x, y, z := tj(1), tj(1), tj(2)
	if !bytes.Equal(x.seq.digest(n), y.seq.digest(n)) || bytes.Equal(x.seq.digest(n), z.seq.digest(n)) {
		t.Error("trajectory stream is not a pure function of the seed")
	}
	if x.seq.at(0).kind != opRoutes || x.seq.at(1).kind != opTrajSOI {
		t.Error("trajectory stream does not alternate its two endpoints")
	}
	w1, w2 := newWriteBatches(ds, 1), newWriteBatches(ds, 1)
	if string(writeRequest(w1[3]).body) != string(writeRequest(w2[3]).body) {
		t.Error("write batches are not a pure function of the seed")
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if quantile(v, 0.5) != 50 || quantile(v, 0.95) != 95 || quantile(v, 1) != 100 || quantile(nil, 0.5) != 0 {
		t.Error("quantile is not nearest-rank")
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python's statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	tr := newTracer()
	p := tr.begin("outer", 1, mark{})
	time.Sleep(2 * time.Millisecond)
	d := tr.end(p)
	tr.child(p, "inner", 1, d/2)
	tr.on = false
	if m := tr.begin("unrecorded", 2, p); m.id != 0 || tr.end(m) < 0 {
		t.Error("a tracer that is off recorded a span")
	}
	if len(tr.spans) != 2 || !tr.spans[1].Rebased || tr.spans[1].Parent != 1 {
		t.Fatalf("unexpected spans %+v", tr.spans)
	}
	if got := selfTimes(tr.spans)[1]; got != d-d/2 {
		t.Errorf("outer self time %v, want %v", got, d-d/2)
	}
}

func runsOf(workload, metric string, values ...float64) runsFile {
	var f runsFile
	for _, v := range values {
		f.Runs = append(f.Runs, runDoc{Workloads: map[string]*workloadDoc{
			workload: {EndToEnd: &result{Metrics: map[string]metricValue{metric: {Value: v}}}},
		}})
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m         specMetric
		base, cur []float64
		want      string
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.5}, verdictSame},
		{lower, []float64{10, 10.1, 9.9}, []float64{11.5}, verdictWorse},
		{lower, []float64{10, 10.1, 9.9}, []float64{8.5}, verdictBetter},
		{lower, []float64{8, 10, 12, 14}, []float64{10.5}, verdictUnresolved},
		{higher, []float64{100}, []float64{85}, verdictWorse},
		{higher, []float64{100}, []float64{115}, verdictBetter},
		{higher, []float64{100}, []float64{95}, verdictSame},
	} {
		if _, _, got := verdict(c.m, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.m.Name, c.base, c.cur, got, c.want)
		}
	}

	sp := &spec{Workloads: []specWorkload{{Name: "w"}}, EndToEnd: []specMetric{higher}}
	var out strings.Builder
	if code := compareRuns(&out, sp, runsOf("w", "ops_per_s", 100, 101), runsOf("w", "ops_per_s", 99)); code != 0 {
		t.Errorf("no row is worse, exit code %d\n%s", code, out.String())
	}
	if code := compareRuns(&out, sp, runsOf("w", "ops_per_s", 100, 101), runsOf("w", "ops_per_s", 50)); code != 1 {
		t.Errorf("a worse row must exit 1, got %d", code)
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("table does not name the verdict:\n%s", out.String())
	}
	if code := compareRuns(&out, sp, runsOf("w", "ops_per_s", 100), runsOf("other", "ops_per_s", 100)); code != 2 {
		t.Errorf("files with nothing in common must exit 2, got %d", code)
	}
}

// TestNamesMatchBenchmarkJSON pins the driver's vocabulary to the
// committed contract: the names later changes cite are the names the
// driver prints.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, sp.Workloads[i].Name, w.name)
		}
		if why := sp.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, listed []specMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the driver emits %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || !name.MatchString(d.name) {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], driver %s [%s]", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
	}
	same("end-to-end", sp.EndToEnd, endToEndMetrics)
	same("per-layer", sp.PerLayer, perLayerMetrics)
	var setup specMetric
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be in seconds, lower is better: %+v", setup)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths = %v", sp.Paths)
	}
}

func TestProcParsing(t *testing.T) {
	stat := []byte("4242 (soi serve) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 9 0 100 1000 200 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	if got, err := parseStatCPU(stat); err != nil || got != 2.0 {
		t.Errorf("parseStatCPU = %v, %v; want 2 s (150+50 ticks)", got, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("malformed stat line accepted")
	}
	status := []byte("Name:\tsoiserve\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100000 kB\n")
	if got, err := parseStatusHWM(status); err != nil || got != 200 {
		t.Errorf("parseStatusHWM = %v, %v; want 200 MB", got, err)
	}
	if _, err := parseStatusHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

func TestCalibratorSlowdowns(t *testing.T) {
	ref := calSliceReference.Seconds()
	// Two slices at the reference speed and one twice as slow: the
	// operations of the phase met the harmonic mean, 3/(1+1+1/2) = 1.2.
	t0 := time.Now()
	c := &calibrator{
		slices: []float64{ref, 2 * ref, ref},
		when:   []time.Time{t0.Add(calWindow / 2), t0.Add(calWindow * 3 / 2), t0.Add(calWindow * 7 / 2)},
	}
	if got := c.meanSlowdown(); got < 1.2-1e-9 || got > 1.2+1e-9 {
		t.Errorf("meanSlowdown = %v, want 1.2", got)
	}
	// By window: of three, the slice after the phase's end counts for the
	// last; of four, the third has no slice and takes the phase's median.
	if got := c.windowSlowdowns(t0, 3); !slices.Equal(got, []float64{1, 2, 1}) {
		t.Errorf("windowSlowdowns = %v, want [1 2 1]", got)
	}
	if got := c.windowSlowdowns(t0, 4); !slices.Equal(got, []float64{1, 2, 1, 1}) {
		t.Errorf("windowSlowdowns = %v, want [1 2 1 1]", got)
	}
	live := newCalibrator()
	if d := live.slice(); d <= 0 {
		t.Errorf("a slice took %v", d)
	}
	live.last = time.Now().Add(-calEvery)
	live.tick(false)
	live.last = time.Now().Add(-calEvery)
	live.tick(true)
	live.tick(true) // too soon after the last: not run
	if len(live.slices) != 1 || live.spent <= 0 {
		t.Errorf("%d slices recorded taking %v, want 1", len(live.slices), live.spent)
	}
}

func TestPinToOneCPU(t *testing.T) {
	var before, pinned, after cpuSet
	if err := before.syscall(syscall.SYS_SCHED_GETAFFINITY, 0); err != nil {
		t.Fatal(err)
	}
	restore, err := pinToOneCPU()
	if err != nil {
		t.Fatal(err)
	}
	if err := pinned.syscall(syscall.SYS_SCHED_GETAFFINITY, 0); err != nil {
		t.Fatal(err)
	}
	restore()
	if err := after.syscall(syscall.SYS_SCHED_GETAFFINITY, 0); err != nil {
		t.Fatal(err)
	}
	cpus := 0
	for i, word := range pinned {
		cpus += bits.OnesCount64(word)
		if word&^before[i] != 0 {
			t.Errorf("pinned to a CPU outside the original mask")
		}
	}
	if cpus != 1 {
		t.Errorf("pinned to %d CPUs, want 1", cpus)
	}
	if after != before {
		t.Errorf("affinity not restored: %v, was %v", after[0], before[0])
	}
}

func TestStructuralCheck(t *testing.T) {
	q := ksoiQuery{Keywords: []string{"shop"}, K: 2, Eps: 0.0005}.request()
	for body, ok := range map[string]bool{
		`{"streets":[{"Name":"a","Interest":2},{"Name":"b","Interest":1}]}`: true,
		`{"streets":[]}`: true,
		`{"streets":[{"Name":"a","Interest":1},{"Name":"b","Interest":2}]}`:                           false, // ascending
		`{"streets":[{"Name":"a","Interest":3},{"Name":"b","Interest":2},{"Name":"c","Interest":1}]}`: false, // more than k
		`{"streets":[{"Name":"a","Interest":2}],"degraded":true}`:                                     false,
		`{"streets":`: false,
	} {
		if err := validate(q, 200, []byte(body)); (err == nil) != ok {
			t.Errorf("validate(%s) = %v", body, err)
		}
	}
	if err := validate(q, 503, []byte(`{"error":"engine: overloaded"}`)); err == nil {
		t.Error("a shed request passed the structural check")
	}
	w := writeRequest(make([]poiBody, writeBatchSize))
	if err := validate(w, 200, []byte(`{"added":100,"published":true,"epoch":2}`)); err != nil {
		t.Error(err)
	}
	if err := validate(w, 200, []byte(`{"added":100,"published":false}`)); err == nil {
		t.Error("an unpublished write passed")
	}
}

// TestWholeDriverOnSmallCity runs every workload end to end against
// real child processes, and one traced run, on the "small" city with
// half-second phases: the servers are built from this checkout, every
// answer check runs, and every metric must come out.
func TestWholeDriverOnSmallCity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the server binaries")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	e, err := newEnv(ctx, "..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, w := range workloads {
		w.world = smallWorld
		res, obs, err := runEndToEnd(ctx, e, w, 1, 500*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d failed\n%s", w.name, res.Failed, res.Attempted, strings.Join(obs.lines, "\n"))
		}
		for _, d := range endToEndMetrics {
			if v := res.Metrics[d.name]; !(v.Value > 0) || v.Unit != d.unit {
				t.Errorf("%s: %s = %+v", w.name, d.name, v)
			}
		}
	}
	w := workloads[1]
	w.world = smallWorld
	res, obs, err := runTraced(ctx, e, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Errorf("traced run: %d of %d failed\n%s", res.Failed, res.Attempted, strings.Join(obs.lines, "\n"))
	}
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("traced run reported %d of %d metrics", len(res.Metrics), len(perLayerMetrics))
	}
	if got := res.Metrics["engine.result_cache_hit_ratio"].Value; got != 1 {
		t.Errorf("the hot workload's stream hit the result cache at ratio %v, want 1", got)
	}
}
