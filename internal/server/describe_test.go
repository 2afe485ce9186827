package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	soi "repro"
	"repro/internal/faults"
)

// describeServer is testServer's world (High St has photos) under a
// caller-chosen engine config.
func describeServer(t *testing.T, ecfg soi.Config) *Server {
	t.Helper()
	streets := []soi.StreetInput{
		{Name: "High St", Polyline: []soi.Point{{X: 0, Y: 0}, {X: 0.002, Y: 0}}},
		{Name: "Side St", Polyline: []soi.Point{{X: 0.002, Y: 0}, {X: 0.002, Y: 0.002}}},
	}
	pois := []soi.POIInput{{X: 0.0003, Y: 0.0001, Keywords: []string{"shop"}}}
	photos := []soi.PhotoInput{
		{X: 0.0005, Y: 0.0001, Tags: []string{"high", "shopfront"}},
		{X: 0.0010, Y: -0.0001, Tags: []string{"high", "crowd"}},
		{X: 0.0015, Y: 0.0001, Tags: []string{"construction"}},
	}
	eng, err := soi.NewEngine(streets, pois, photos, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(eng)
}

// TestDescribeRefusesBadParams: every request-controlled number of
// /api/describe is refused with a JSON 400 when it is not finite or lies
// outside its range. lambda=NaN used to answer 200 with an empty body
// (the NaN objective failed to encode after the header was written),
// w=NaN 200 with "Photos":null, and eps=NaN or eps=-1 a 404.
func TestDescribeRefusesBadParams(t *testing.T) {
	s := describeServer(t, soi.Config{})
	for _, param := range []string{
		"lambda=NaN", "lambda=Inf", "lambda=-0.1", "lambda=1.5",
		"w=NaN", "w=-Inf", "w=2",
		"rho=NaN", "rho=Inf", "rho=-Inf", "rho=-0.0001",
		"eps=NaN", "eps=Inf", "eps=-Inf", "eps=-1",
		"k=-1",
	} {
		rec, body := get(t, s, "/api/describe?street=High+St&"+param)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", param, rec.Code, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "invalid summary parameters") {
			t.Errorf("%s: error %q does not say what was wrong", param, msg)
		}
	}
	// ε and ρ key the describe-context memo, and a NaN key is never found
	// again: a refused request must not have looked anything up in it.
	if d := s.engine.StatsSnapshot().Diversify; d.ContextMemoMisses != 0 || d.ContextMemoPhotos != 0 {
		t.Errorf("refused describes reached the context memo: %d lookups, %d photos held", d.ContextMemoMisses, d.ContextMemoPhotos)
	}
	if rec, body := get(t, s, "/api/describe?street=High+St&k=2&lambda=1&w=1"); rec.Code != http.StatusOK {
		t.Errorf("boundary values: status %d (%v)", rec.Code, body)
	}
	// The 404s keep their meaning.
	if rec, _ := get(t, s, "/api/describe?street=Ghost+Road&lambda=NaN"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown street: status %d, want 404", rec.Code)
	}
	if rec, _ := get(t, s, "/api/describe?street=Side+St&eps=0.00001"); rec.Code != http.StatusNotFound {
		t.Errorf("street without photos: status %d, want 404", rec.Code)
	}
}

// TestDescribeHugeK: a k far past the street's photo pool answers with
// the whole pool. k=1099511627776 used to take the process down with
// "fatal error: runtime: out of memory" — the summary sized its selection
// by k before clamping it — which no recover() sees.
func TestDescribeHugeK(t *testing.T) {
	s := describeServer(t, soi.Config{})
	rec, body := get(t, s, "/api/describe?street=High+St&k=1099511627776")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (%v)", rec.Code, body)
	}
	photos, _ := body["Photos"].([]interface{})
	if n, _ := body["CandidateCount"].(float64); n == 0 || len(photos) != int(n) {
		t.Fatalf("%d photos for CandidateCount %v, want all of them", len(photos), body["CandidateCount"])
	}
}

// TestDescribeShedUnderLoad: describes queue behind the gate routes and
// trajectories use. With the one slot held by a wedged route query and
// the one queue place taken by a second, a describe is shed with 503 +
// Retry-After; once the slot frees it is served.
func TestDescribeShedUnderLoad(t *testing.T) {
	defer faults.Reset()
	s := describeServer(t, soi.Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	faults.Activate("traj.search", faults.Fault{Block: block})

	postRoute := func(code chan<- int) {
		const q = `{"src":[0,0],"dst":[0.002,0.002],"keywords":["shop"],"k":1,"budget":0.02}`
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/routes/topk", strings.NewReader(q)))
		code <- rec.Code
	}
	describe := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/describe?street=High+St&k=2", nil).WithContext(ctx))
		return rec
	}

	wedged, queued := make(chan int, 1), make(chan int, 1)
	go postRoute(wedged) // takes the slot and parks at the fault site
	waitUntil(t, func() bool { return faults.Visits("traj.search") >= 1 })
	go postRoute(queued) // takes the queue place
	// Whether the second query has reached the queue is not observable, so
	// probe with a describe on a short deadline: it is shed at once when
	// the place is taken, and otherwise takes the place itself until the
	// deadline — shedding the route query if that arrives meanwhile, in
	// which case another is sent before the next probe.
	var rec *httptest.ResponseRecorder
	waitUntil(t, func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if rec = describe(ctx); rec.Code == http.StatusServiceUnavailable {
			return true
		}
		select {
		case <-queued:
			go postRoute(queued)
		default:
		}
		return false
	})
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without a Retry-After hint")
	}
	if !strings.Contains(rec.Body.String(), "overloaded") {
		t.Errorf("503 body does not name the overload: %s", rec.Body.String())
	}

	close(block)
	for _, ch := range []chan int{wedged, queued} {
		if code := <-ch; code != http.StatusOK {
			t.Errorf("admitted route query answered %d after the slot freed", code)
		}
	}
	if rec := describe(context.Background()); rec.Code != http.StatusOK {
		t.Errorf("describe after the slot freed: status %d: %s", rec.Code, rec.Body.String())
	}
}
