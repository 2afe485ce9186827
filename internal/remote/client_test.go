package remote_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/stats"
)

// fastClient returns a client config tuned so failure paths resolve in
// milliseconds instead of the production defaults.
func fastConfig(addrs [][]string, rec *stats.Recorder) remote.Config {
	return remote.Config{
		Addrs:          addrs,
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    3,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
		Recorder:       rec,
	}
}

// flakyShard is a handler that fails its first n /shard/query calls
// with the given status, then delegates to a healthy responder.
type flakyShard struct {
	failures atomic.Int64
	status   int
	calls    atomic.Int64
	resp     remote.QueryResponse
}

func (f *flakyShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/readyz", "/healthz":
		w.WriteHeader(http.StatusOK)
		return
	case "/shard/query":
		n := f.calls.Add(1)
		if n <= f.failures.Load() {
			http.Error(w, "injected failure", f.status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(f.resp)
	default:
		http.NotFound(w, r)
	}
}

// TestClientRetriesTransientFailures: two 500s then success must
// resolve within one call, with the retry counters telling the story.
func TestClientRetriesTransientFailures(t *testing.T) {
	fs := &flakyShard{status: http.StatusInternalServerError, resp: remote.QueryResponse{Shard: 0, UB: 1.5}}
	fs.failures.Store(2)
	hs := httptest.NewServer(fs)
	defer hs.Close()

	rec := stats.NewRecorder()
	c, err := remote.NewClient(fastConfig([][]string{{hs.URL}}, rec))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query(context.Background(), 0, testQuery())
	if err != nil {
		t.Fatalf("call failed despite retry budget: %v", err)
	}
	if resp.UB != 1.5 {
		t.Errorf("UB = %v, want 1.5", resp.UB)
	}
	if got := rec.Remote.Retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := rec.Remote.Attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if got := rec.Remote.Errors.Load(); got != 0 {
		t.Errorf("errors = %d, want 0 (the call succeeded)", got)
	}
}

// TestClientExhaustsRetries: a shard that never recovers must fail the
// call after exactly MaxAttempts rounds — bounded, never hanging.
func TestClientExhaustsRetries(t *testing.T) {
	fs := &flakyShard{status: http.StatusInternalServerError}
	fs.failures.Store(1 << 30)
	hs := httptest.NewServer(fs)
	defer hs.Close()

	rec := stats.NewRecorder()
	c, err := remote.NewClient(fastConfig([][]string{{hs.URL}}, rec))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(context.Background(), 0, testQuery()); err == nil {
		t.Fatal("call succeeded against a permanently failing shard")
	}
	if got := rec.Remote.Attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (MaxAttempts)", got)
	}
	if got := rec.Remote.Errors.Load(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
}

// TestClientPermanentErrorNoRetry: a 4xx is the request's fault; the
// client must return it immediately, typed, without burning retries.
func TestClientPermanentErrorNoRetry(t *testing.T) {
	fs := &flakyShard{status: http.StatusBadRequest}
	fs.failures.Store(1 << 30)
	hs := httptest.NewServer(fs)
	defer hs.Close()

	rec := stats.NewRecorder()
	c, err := remote.NewClient(fastConfig([][]string{{hs.URL}}, rec))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(context.Background(), 0, testQuery())
	var pe *remote.PermanentError
	if !errors.As(err, &pe) || pe.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want *PermanentError with status 400", err)
	}
	if got := rec.Remote.Attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on permanent errors)", got)
	}
}

// TestClientFailover: with the first replica down, the call must
// succeed through the second without exhausting the retry budget.
func TestClientFailover(t *testing.T) {
	good := &flakyShard{resp: remote.QueryResponse{Shard: 0, UB: 2.5}}
	hs := httptest.NewServer(good)
	defer hs.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // a closed listener: connection refused

	rec := stats.NewRecorder()
	c, err := remote.NewClient(fastConfig([][]string{{dead.URL, hs.URL}}, rec))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The rotation counter decides which replica goes first; both orders
	// must converge on the live one within the retry budget.
	for i := 0; i < 4; i++ {
		resp, err := c.Query(context.Background(), 0, testQuery())
		if err != nil {
			t.Fatalf("call %d failed despite a live replica: %v", i, err)
		}
		if resp.UB != 2.5 {
			t.Errorf("call %d: UB = %v, want 2.5", i, resp.UB)
		}
	}
}

// TestClientBreakerTripsAndRecovers: consecutive failures must trip the
// breaker (short-circuiting later calls), and a successful /readyz
// probe after the open period must re-admit the replica.
func TestClientBreakerTripsAndRecovers(t *testing.T) {
	fs := &flakyShard{status: http.StatusInternalServerError, resp: remote.QueryResponse{Shard: 0, UB: 3.5}}
	fs.failures.Store(1 << 30)
	hs := httptest.NewServer(fs)
	defer hs.Close()

	rec := stats.NewRecorder()
	cfg := fastConfig([][]string{{hs.URL}}, rec)
	cfg.Breaker = remote.BreakerConfig{Failures: 3, OpenFor: 30 * time.Millisecond}
	c, err := remote.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One call = 3 attempts = 3 consecutive failures: trips the breaker.
	if _, err := c.Query(context.Background(), 0, testQuery()); err == nil {
		t.Fatal("call succeeded against a failing shard")
	}
	if got := rec.Remote.BreakerOpens.Load(); got != 1 {
		t.Fatalf("breaker opens = %d, want 1", got)
	}
	// While open, calls short-circuit without touching the network.
	before := fs.calls.Load()
	if _, err := c.Query(context.Background(), 0, testQuery()); !errors.Is(err, remote.ErrAllBreakersOpen) {
		t.Fatalf("err = %v, want ErrAllBreakersOpen", err)
	}
	if fs.calls.Load() != before {
		t.Errorf("open breaker still let %d requests through", fs.calls.Load()-before)
	}
	if rec.Remote.BreakerShortCircuits.Load() == 0 {
		t.Error("no short circuits recorded")
	}

	// Heal the shard, wait out the open period: the half-open probe must
	// re-admit it and the next call succeeds.
	fs.failures.Store(fs.calls.Load())
	time.Sleep(40 * time.Millisecond)
	resp, err := c.Query(context.Background(), 0, testQuery())
	if err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
	if resp.UB != 3.5 {
		t.Errorf("UB = %v, want 3.5", resp.UB)
	}
	if rec.Remote.BreakerProbes.Load() == 0 {
		t.Error("recovery did not go through a half-open probe")
	}
	states := c.BreakerStates()
	if states[0][0] != "closed" {
		t.Errorf("breaker state after recovery = %q, want closed", states[0][0])
	}
}

// stallableShard answers /shard/query at once until stalled, then
// sleeps 400 ms before answering; it counts the queries it receives.
type stallableShard struct {
	stall atomic.Bool
	calls atomic.Int32
	ub    float64
}

func (s *stallableShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/shard/query" {
		s.calls.Add(1)
		if s.stall.Load() {
			time.Sleep(400 * time.Millisecond)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(remote.QueryResponse{Shard: 0, UB: s.ub})
}

// warmHedging makes enough fast calls for the shard's latency window to
// arm the p95 hedge delay.
func warmHedging(t *testing.T, c *remote.Client) {
	t.Helper()
	for i := 0; i < 20; i++ {
		if _, err := c.Query(context.Background(), 0, testQuery()); err != nil {
			t.Fatalf("warm-up call %d: %v", i, err)
		}
	}
}

// TestClientHedging: once the shard's p95 is measured, a primary stuck
// past it must be raced by a second replica, and the fast replica's
// answer wins.
func TestClientHedging(t *testing.T) {
	slow := &stallableShard{ub: 1}
	fast := &flakyShard{resp: remote.QueryResponse{Shard: 0, UB: 9}}
	hsSlow := httptest.NewServer(slow)
	defer hsSlow.Close()
	hsFast := httptest.NewServer(fast)
	defer hsFast.Close()

	rec := stats.NewRecorder()
	cfg := remote.Config{
		Addrs:          [][]string{{hsSlow.URL, hsFast.URL}},
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    1,
		Recorder:       rec,
	}
	c, err := remote.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	warmHedging(t, c)
	slow.stall.Store(true)

	// Whichever replica the rotation picks first, a slow primary hedges
	// to the fast replica; a fast primary answers before the hedge
	// timer. Drive until the slow replica is primary at least once.
	sawHedgeWin := false
	start := time.Now()
	for i := 0; i < 4 && !sawHedgeWin; i++ {
		resp, err := c.Query(context.Background(), 0, testQuery())
		if err != nil {
			t.Fatalf("hedged call %d: %v", i, err)
		}
		if resp.UB == 9 && rec.Remote.HedgesWon.Load() > 0 {
			sawHedgeWin = true
		}
	}
	if !sawHedgeWin {
		t.Fatalf("no hedge won in 4 calls (hedges started: %d, won: %d)",
			rec.Remote.HedgesStarted.Load(), rec.Remote.HedgesWon.Load())
	}
	// The winning path must beat the slow replica's 400ms sleep.
	if elapsed := time.Since(start); elapsed > 4*350*time.Millisecond {
		t.Errorf("hedging saved no time: %v elapsed", elapsed)
	}
}

// TestClientNeverHedgesOntoTheOnlyReplica: with one replica per shard a
// primary slower than the measured p95 is waited for, not raced by a
// second request to itself, which would evaluate the query twice in the
// same process.
func TestClientNeverHedgesOntoTheOnlyReplica(t *testing.T) {
	only := &stallableShard{ub: 1}
	hs := httptest.NewServer(only)
	defer hs.Close()

	rec := stats.NewRecorder()
	c, err := remote.NewClient(remote.Config{
		Addrs:          [][]string{{hs.URL}},
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    1,
		Recorder:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	warmHedging(t, c)
	only.stall.Store(true)
	before := only.calls.Load()
	if _, err := c.Query(context.Background(), 0, testQuery()); err != nil {
		t.Fatal(err)
	}
	if h, n := rec.Remote.HedgesStarted.Load(), only.calls.Load()-before; h != 0 || n != 1 {
		t.Errorf("one slow call to the only replica started %d hedges and reached it %d times, want 0 and 1", h, n)
	}
}

// TestClientContextCancellation: cancelling the caller's context must
// abort the call promptly with the context error, not an exhausted
// retry loop, and not count a client-visible error.
func TestClientContextCancellation(t *testing.T) {
	stuck := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only watches for the peer
		// closing the connection once the request body has been consumed.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	hs := httptest.NewServer(stuck)
	defer hs.Close()

	rec := stats.NewRecorder()
	c, err := remote.NewClient(fastConfig([][]string{{hs.URL}}, rec))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, 0, testQuery())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call did not abort after cancellation")
	}
	if got := rec.Remote.Errors.Load(); got != 0 {
		t.Errorf("errors = %d, want 0 (caller cancelled, shard fine)", got)
	}
}

// TestClientBoundRoundTrip: the bound a gather orders and prunes by
// rides on Query's answer, and must cross the wire as the index's exact
// unseen bound — Float64bits-equal, for every shard.
func TestClientBoundRoundTrip(t *testing.T) {
	w := testWorld(t, 4, 42)
	_, addrs := startShards(t, w, remote.ServerConfig{})
	c, err := remote.NewClient(fastConfig(addrs, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range []core.Query{testQuery(), {Keywords: []string{"education"}, K: 3, Epsilon: 0.0005}} {
		for i, s := range w.Shards {
			got, err := c.Query(context.Background(), i, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.Index.UnseenBound(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.UB) != math.Float64bits(want) {
				t.Errorf("%v shard %d: bound %v != %v", q.Keywords, i, got.UB, want)
			}
			if (want == 0) != (len(got.Results) == 0) {
				t.Errorf("%v shard %d: bound %v with %d results", q.Keywords, i, want, len(got.Results))
			}
		}
	}
}

// TestClientMeta: Meta must fail over dead replicas and validate
// against the world.
func TestClientMeta(t *testing.T) {
	w := testWorld(t, 2, 1)
	_, addrs := startShards(t, w, remote.ServerConfig{})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	addrs[0] = append([]string{dead.URL}, addrs[0]...)

	c, err := remote.NewClient(fastConfig(addrs, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.Meta(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shard != 0 || m.Shards != len(w.Shards) {
		t.Errorf("meta %+v does not match world", m)
	}
}

func TestParseAddrs(t *testing.T) {
	got, err := remote.ParseAddrs("a:1,b:1; c:2 ;d:3,e:3,f:3")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a:1", "b:1"}, {"c:2"}, {"d:3", "e:3", "f:3"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseAddrs = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "a:1;;b:2", ";a:1", "a:1;,"} {
		if _, err := remote.ParseAddrs(bad); err == nil {
			t.Errorf("ParseAddrs(%q) accepted a gapped table", bad)
		}
	}
}

// TestClientConfigValidation: an empty or gapped address table must be
// rejected at construction.
func TestClientConfigValidation(t *testing.T) {
	if _, err := remote.NewClient(remote.Config{}); err == nil {
		t.Error("NewClient accepted an empty address table")
	}
	if _, err := remote.NewClient(remote.Config{Addrs: [][]string{{"a:1"}, {}}}); err == nil {
		t.Error("NewClient accepted a shard with no replicas")
	}
	if _, err := remote.NewClient(remote.Config{Addrs: [][]string{{" "}}}); err == nil {
		t.Error("NewClient accepted a blank address")
	}
	c, err := remote.NewClient(remote.Config{Addrs: [][]string{{"a:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), 5, core.Query{Keywords: []string{"x"}, K: 1, Epsilon: 0.1}); err == nil {
		t.Error("out-of-range shard accepted")
	}
}
