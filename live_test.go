package soi

import (
	"bytes"
	"context"
	"errors"
	"log"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// liveFixture builds a small live engine through the public API.
func liveFixture(t *testing.T, cfg LiveConfig) *Engine {
	t.Helper()
	streets := []StreetInput{
		{Name: "High St", Polyline: []Point{{0, 0}, {0.001, 0}, {0.002, 0}}},
		{Name: "Low St", Polyline: []Point{{0, 0.002}, {0.001, 0.002}}},
		{Name: "Quiet St", Polyline: []Point{{0, 0.005}, {0.001, 0.005}}},
	}
	var pois []POIInput
	for i := 0; i < 6; i++ {
		pois = append(pois, POIInput{X: 0.0002 * float64(i), Y: 0.0001, Keywords: []string{"shop"}})
	}
	photos := []PhotoInput{
		{X: 0.0004, Y: 0.0001, Tags: []string{"shop", "street"}},
		{X: 0.0008, Y: 0.0002, Tags: []string{"market"}},
		{X: 0.0012, Y: 0.0001, Tags: []string{"shop"}},
	}
	eng, err := NewLiveEngine(streets, pois, photos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func TestLiveEngineEndToEnd(t *testing.T) {
	eng := liveFixture(t, LiveConfig{})
	if !eng.Live() {
		t.Fatal("NewLiveEngine built a non-live engine")
	}
	if got := eng.Epoch(); got != 1 {
		t.Fatalf("initial epoch = %d, want 1", got)
	}
	q := Query{Keywords: []string{"museum"}, K: 3, Epsilon: 0.0005}

	// No museums yet.
	res, err := eng.TopStreets(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("museum query before ingest: %d results, want 0", len(res))
	}

	// Stream two museums near Quiet St; the query must not change until
	// a publish installs a new epoch.
	pending, err := eng.AddPOIs([]POIInput{
		{X: 0.0004, Y: 0.0051, Keywords: []string{"museum"}},
		{X: 0.0008, Y: 0.0049, Keywords: []string{"museum"}},
	})
	if err != nil || pending != 2 {
		t.Fatalf("AddPOIs = (%d, %v), want (2, nil)", pending, err)
	}
	if res, err := eng.TopStreets(q); err != nil || len(res) != 0 {
		t.Fatalf("unpublished deltas visible: %d results, err %v", len(res), err)
	}
	if got := eng.NumPOIs(); got != 6 {
		t.Fatalf("NumPOIs before publish = %d, want 6 indexed", got)
	}

	epoch, folded, err := eng.Publish()
	if err != nil || epoch != 2 || folded != 2 {
		t.Fatalf("Publish = (%d, %d, %v), want (2, 2, nil)", epoch, folded, err)
	}
	res, trace, err := eng.TopStreetsTracedCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "Quiet St" {
		t.Fatalf("museum query after publish: %+v, want Quiet St", res)
	}
	if trace.Epoch != 2 {
		t.Fatalf("trace epoch = %d, want 2", trace.Epoch)
	}
	if got := eng.NumPOIs(); got != 8 {
		t.Fatalf("NumPOIs after publish = %d, want 8", got)
	}

	// Compaction must not change answers, but advances the epoch.
	preBits := math.Float64bits(res[0].Interest)
	epoch, folded, err = eng.Compact()
	if err != nil || epoch != 3 || folded != 2 {
		t.Fatalf("Compact = (%d, %d, %v), want (3, 2, nil)", epoch, folded, err)
	}
	res2, trace2, err := eng.TopStreetsTracedCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if trace2.Epoch != 3 || trace2.Cached {
		t.Fatalf("post-compaction trace = {Epoch %d Cached %t}, want fresh epoch-3 evaluation", trace2.Epoch, trace2.Cached)
	}
	if len(res2) != 1 || math.Float64bits(res2[0].Interest) != preBits {
		t.Fatalf("compaction changed the answer: %+v vs interest bits %x", res2, preBits)
	}

	// The static serving surface still works on a live engine.
	if _, err := eng.DescribeStreet("High St", SummaryParams{K: 2}); err != nil {
		t.Fatalf("DescribeStreet on live engine: %v", err)
	}
	snap := eng.StatsSnapshot()
	if snap.Ingest.Publishes != 1 || snap.Ingest.Compactions != 1 || snap.Ingest.EpochSeq != 3 {
		t.Fatalf("ingest stats: %+v", snap.Ingest)
	}
}

// TestEnginesRefuseBadWeights: NewEngine, NewLiveEngine and AddPOIs all
// refuse a POI weight whose sums could overflow, with ErrBadWeight.
func TestEnginesRefuseBadWeights(t *testing.T) {
	streets := []StreetInput{{Name: "High St", Polyline: []Point{{0, 0}, {0.002, 0}}}}
	bad := []POIInput{{X: 0.001, Y: 0.0001, Keywords: []string{"shop"}, Weight: 1e308}}
	if _, err := NewEngine(streets, bad, nil, Config{}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("NewEngine: err = %v, want ErrBadWeight", err)
	}
	if _, err := NewLiveEngine(streets, bad, nil, LiveConfig{}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("NewLiveEngine: err = %v, want ErrBadWeight", err)
	}
	eng := liveFixture(t, LiveConfig{})
	if _, err := eng.AddPOIs(bad); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("AddPOIs: err = %v, want ErrBadWeight", err)
	}
}

func TestWritePathRequiresLiveEngine(t *testing.T) {
	eng := fixtureEngine(t)
	if eng.Live() {
		t.Fatal("static engine reports Live")
	}
	if _, err := eng.AddPOIs([]POIInput{{X: 0, Y: 0, Keywords: []string{"x"}}}); !errors.Is(err, ErrNotLive) {
		t.Fatalf("AddPOIs on static engine: %v, want ErrNotLive", err)
	}
	if _, _, err := eng.Publish(); !errors.Is(err, ErrNotLive) {
		t.Fatalf("Publish on static engine: %v, want ErrNotLive", err)
	}
	if _, _, err := eng.Compact(); !errors.Is(err, ErrNotLive) {
		t.Fatalf("Compact on static engine: %v, want ErrNotLive", err)
	}
	if got := eng.Epoch(); got != 0 {
		t.Fatalf("static engine epoch = %d, want 0", got)
	}
}

// TestConcurrentWritesAndQueries pins the index read-only contract from
// the public API: concurrent writes and queries cannot race on a shared
// index, because writes go through the ingest delta log and queries pin
// immutable epochs; nothing mutates a serving index in place. Run under
// -race this test fails if any such path appears.
func TestConcurrentWritesAndQueries(t *testing.T) {
	eng := liveFixture(t, LiveConfig{BatchSize: 4})
	q := Query{Keywords: []string{"shop", "museum"}, K: 5, Epsilon: 0.0008}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.TopStreetsCtx(context.Background(), q); err != nil {
					t.Errorf("query during live writes: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		x := 0.0002 * float64(i%10)
		if _, err := eng.AddPOIs([]POIInput{{X: x, Y: 0.0049, Keywords: []string{"museum"}}}); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			if _, _, err := eng.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := eng.Publish(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := eng.IngestErr(); err != nil {
		t.Fatalf("background ingest error: %v", err)
	}
	// Everything streamed is now queryable.
	res, err := eng.TopStreets(Query{Keywords: []string{"museum"}, K: 3, Epsilon: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "Quiet St" {
		t.Fatalf("museum query after streaming: %+v, want Quiet St", res)
	}
}

// TestLiveBackgroundFailureIsLogged: an auto-compaction that cannot
// write its snapshot fails in the background goroutine, where no caller
// sees the error. It is kept for IngestErr and logged, and the serving
// epoch keeps answering.
func TestLiveBackgroundFailureIsLogged(t *testing.T) {
	var logged lockedBuffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	eng := liveFixture(t, LiveConfig{CompactAfter: 1, SnapshotPath: filepath.Join(file, "world.soi")})
	if _, err := eng.AddPOIs([]POIInput{{X: 0.0004, Y: 0.0049, Keywords: []string{"museum"}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Publish(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); eng.IngestErr() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the failed auto-compaction left IngestErr nil")
		}
	}
	// setErr logs before it stores, so the line is there once Err is set.
	if want := "ingest: background publish/compact failed: "; !strings.Contains(logged.String(), want) {
		t.Fatalf("log = %q, want a line containing %q", logged.String(), want)
	}
	if _, published, _ := eng.IngestCounts(); published != 1 {
		t.Fatalf("%d published deltas after the failed compaction, want 1 still unfolded", published)
	}
	res, err := eng.TopStreets(Query{Keywords: []string{"museum"}, K: 3, Epsilon: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "Quiet St" {
		t.Fatalf("museum query after the failed compaction: %+v, want Quiet St", res)
	}
}

// lockedBuffer is a bytes.Buffer that a logger may write while a test
// reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestLiveRoutesAndTrajectoriesPinTheirEpoch: a route or trajectory query
// on a live engine holds the epoch it reads until it returns, as a k-SOI
// evaluation does. Parked at its fault site while a publish installs the
// next epoch, it keeps the old one live — two epochs — and the old one
// retires as soon as the query ends.
func TestLiveRoutesAndTrajectoriesPinTheirEpoch(t *testing.T) {
	defer faults.Reset()
	eng := liveFixture(t, LiveConfig{})
	queries := []struct {
		site string
		run  func() error
	}{
		{"traj.search", func() error {
			_, err := eng.TopRoutesCtx(context.Background(), RouteQuery{Src: Point{0, 0}, Dst: Point{0.002, 0}, Keywords: []string{"shop"}, K: 1, Epsilon: 0.0005, Budget: 0.004})
			return err
		}},
		{"traj.match", func() error {
			_, err := eng.TrajectorySOICtx(context.Background(), TrajectoryQuery{Traces: [][]Point{{{0, 0}, {0.001, 0}, {0.002, 0}}}, Keywords: []string{"shop"}, K: 2, Epsilon: 0.0005})
			return err
		}},
	}
	live := func() int64 { return eng.StatsSnapshot().Ingest.EpochsLive }
	for i, q := range queries {
		block := make(chan struct{})
		faults.Activate(q.site, faults.Fault{Block: block, Times: 1})
		done := make(chan error, 1)
		go func() { done <- q.run() }()
		for deadline := time.Now().Add(5 * time.Second); faults.Fired(q.site) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the query never reached its fault site", q.site)
			}
		}
		if _, err := eng.AddPOIs([]POIInput{{X: 0.0001 * float64(i), Y: 0.0001, Keywords: []string{"cafe"}}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.Publish(); err != nil {
			t.Fatal(err)
		}
		if got := live(); got != 2 {
			t.Errorf("%s: %d epochs live while the query reads the retired one, want 2", q.site, got)
		}
		close(block)
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", q.site, err)
		}
		if got := live(); got != 1 {
			t.Errorf("%s: %d epochs live after the query returned, want 1", q.site, got)
		}
		faults.Deactivate(q.site)
	}
}

// TestLiveRoutesAndTrajectoriesFollowPublishes: each epoch starts an
// empty interest memo, so a live engine answers routes and trajectory
// SOI as an engine built fresh over its published POIs does — before a
// publish, with a warm memo, and after it, not from interests the
// previous epoch memoized.
func TestLiveRoutesAndTrajectoriesFollowPublishes(t *testing.T) {
	streets := []StreetInput{
		{Name: "High St", Polyline: []Point{{0, 0}, {0.001, 0}, {0.002, 0}}},
		{Name: "Cross St", Polyline: []Point{{0.001, 0}, {0.001, 0.001}, {0.001, 0.002}}},
		{Name: "Low St", Polyline: []Point{{0, 0.002}, {0.001, 0.002}, {0.002, 0.002}}},
	}
	var pois []POIInput
	for i := 0; i < 6; i++ {
		pois = append(pois, POIInput{X: 0.0002 * float64(i), Y: 0.0001, Keywords: []string{"shop"}})
	}
	added := []POIInput{
		{X: 0.0015, Y: 0.0001, Keywords: []string{"cafe"}},
		{X: 0.0011, Y: 0.0012, Keywords: []string{"shop"}},
		{X: 0.0016, Y: 0.0019, Keywords: []string{"shop", "cafe"}},
	}
	rq := RouteQuery{Src: Point{0, 0}, Dst: Point{0.002, 0.002}, Keywords: []string{"shop", "cafe"}, K: 3, Epsilon: 0.0005, Budget: 0.006}
	tq := TrajectoryQuery{
		Traces:   [][]Point{{{0, 0}, {0.001, 0}, {0.001, 0.001}, {0.001, 0.002}, {0.002, 0.002}}},
		Keywords: []string{"shop", "cafe"}, K: 3, Epsilon: 0.0005,
	}
	type answer struct {
		Routes  []RouteResult
		Streets []CorridorStreet
	}
	ask := func(e *Engine) answer {
		t.Helper()
		routes, err := e.TopRoutesCtx(context.Background(), rq)
		if err != nil {
			t.Fatal(err)
		}
		streets, err := e.TrajectorySOICtx(context.Background(), tq)
		if err != nil {
			t.Fatal(err)
		}
		return answer{routes, streets}
	}
	fresh := func(pois []POIInput) answer {
		t.Helper()
		e, err := NewEngine(streets, pois, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return ask(e)
	}
	wantBefore, wantAfter := fresh(pois), fresh(append(append([]POIInput(nil), pois...), added...))
	if reflect.DeepEqual(wantBefore, wantAfter) {
		t.Fatal("the added POIs change neither answer; the test cannot tell a stale memo from a fresh one")
	}
	eng, err := NewLiveEngine(streets, pois, nil, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 2; i++ {
		if got := ask(eng); !reflect.DeepEqual(got, wantBefore) {
			t.Fatalf("before the publish, pass %d: %+v, fresh engine %+v", i, got, wantBefore)
		}
	}
	if s := eng.StatsSnapshot().Traj; s.InterestMemoHits == 0 || s.InterestMemoMisses == 0 {
		t.Fatalf("a repeated query was not served from the memo: %+v", s)
	}
	if _, err := eng.AddPOIs(added); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Publish(); err != nil {
		t.Fatal(err)
	}
	if got := ask(eng); !reflect.DeepEqual(got, wantAfter) {
		t.Fatalf("after the publish: %+v, fresh engine %+v", got, wantAfter)
	}
}
