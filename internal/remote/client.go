package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/stats"
)

// ErrAllBreakersOpen is returned (wrapped with the shard id) when every
// replica of a shard is short-circuited by an open breaker.
var ErrAllBreakersOpen = errors.New("remote: every replica breaker is open")

// PermanentError is a definitive per-request failure — the replica
// answered, but with a status retrying cannot fix (a malformed query, a
// body over the cap, a misconfigured route). The client returns it
// without burning retries and without counting a breaker failure: the
// replica is healthy, the request is not.
type PermanentError struct {
	Status int
	Msg    string
}

func (e *PermanentError) Error() string {
	return fmt.Sprintf("remote: permanent %d: %s", e.Status, e.Msg)
}

// HTTPStatus propagates the shard's status through the shared mapper
// (internal/httperr), so a 400 from a shard stays a 400 at the edge.
func (e *PermanentError) HTTPStatus() int { return e.Status }

// Config tunes the fault-tolerant shard client.
type Config struct {
	// Addrs[shard] lists the replica addresses serving that shard, in
	// failover order ("host:port" or a full http:// URL). Every shard
	// needs at least one address.
	Addrs [][]string
	// AttemptTimeout bounds one HTTP attempt. 0 means
	// DefaultAttemptTimeout.
	AttemptTimeout time.Duration
	// MaxAttempts bounds the retry rounds of one call (first try
	// included, hedges excluded). 0 means DefaultMaxAttempts.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// retry rounds (full jitter in [d/2, d)). Zero means
	// DefaultBackoffBase / DefaultBackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeDelay, when positive, launches a hedged second attempt on
	// another replica once the primary has been in flight this long.
	// Zero selects the adaptive delay: the shard's recent p95 latency,
	// once enough samples exist. Hedging only ever races idempotent
	// reads, so a duplicate evaluation is wasted work, never a wrong
	// answer.
	HedgeDelay time.Duration
	// DisableHedge turns hedging off entirely.
	DisableHedge bool
	// Breaker tunes the per-replica circuit breakers.
	Breaker BreakerConfig
	// Transport overrides the HTTP transport (tests inject
	// fault-injecting round-trippers; production uses the default).
	Transport http.RoundTripper
	// Recorder, when non-nil, receives the soi_remote_* counters.
	Recorder *stats.Recorder
}

// DefaultAttemptTimeout bounds one HTTP attempt when Config leaves it
// zero.
const DefaultAttemptTimeout = 2 * time.Second

// DefaultMaxAttempts is the per-call retry budget when Config leaves it
// zero.
const DefaultMaxAttempts = 3

// DefaultBackoffBase and DefaultBackoffMax shape the retry backoff when
// Config leaves them zero.
const (
	DefaultBackoffBase = 10 * time.Millisecond
	DefaultBackoffMax  = 250 * time.Millisecond
)

// maxResponseBytes caps a decoded /shard/query response.
const maxResponseBytes = 64 << 20

// latencyWindow is the per-shard success-latency ring used by adaptive
// hedging; minHedgeSamples gates hedging until the window has signal.
const (
	latencyWindow   = 64
	minHedgeSamples = 16
)

// replicaState is one address plus its circuit breaker.
type replicaState struct {
	addr string
	br   *breaker
}

// shardState is the client's view of one shard: its replicas, a
// rotation counter for failover spread, and the latency window driving
// adaptive hedging.
type shardState struct {
	replicas []*replicaState
	next     atomic.Uint64

	mu   sync.Mutex
	lats [latencyWindow]time.Duration
	nLat int
	iLat int
}

// pick returns the next replica an attempt may use: the first
// breaker-closed replica in rotation order, else the first half-open
// replica granting probe duty, else nil (all open).
func (ss *shardState) pick(now time.Time) (*replicaState, breakerVerdict) {
	n := len(ss.replicas)
	start := int(ss.next.Add(1)-1) % n
	for i := 0; i < n; i++ {
		rep := ss.replicas[(start+i)%n]
		if rep.br.allowFast(now) {
			return rep, breakerAllow
		}
	}
	for i := 0; i < n; i++ {
		rep := ss.replicas[(start+i)%n]
		if v := rep.br.acquire(now); v != breakerDeny {
			return rep, v
		}
	}
	return nil, breakerDeny
}

// pickHedge returns a breaker-closed replica for a hedged attempt,
// preferring one different from the primary. Hedges never take probe
// duty: a half-open breaker's single slot belongs to deliberate probes.
func (ss *shardState) pickHedge(now time.Time, primary *replicaState) *replicaState {
	for _, rep := range ss.replicas {
		if rep != primary && rep.br.allowFast(now) {
			return rep
		}
	}
	if primary.br.allowFast(now) {
		return primary // a second connection to the only healthy replica
	}
	return nil
}

// allowFast reports whether the breaker is closed (or disabled) without
// claiming half-open probe duty.
func (b *breaker) allowFast(now time.Time) bool {
	if b.cfg.Failures < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed
}

func (ss *shardState) observe(d time.Duration) {
	ss.mu.Lock()
	ss.lats[ss.iLat] = d
	ss.iLat = (ss.iLat + 1) % latencyWindow
	if ss.nLat < latencyWindow {
		ss.nLat++
	}
	ss.mu.Unlock()
}

// p95 returns the 95th-percentile success latency over the window, and
// whether enough samples exist to trust it. It runs once per retry round
// of every shard call, so the window is sorted in a copy on the stack.
func (ss *shardState) p95() (time.Duration, bool) {
	ss.mu.Lock()
	n, buf := ss.nLat, ss.lats
	ss.mu.Unlock()
	if n < minHedgeSamples {
		return 0, false
	}
	slices.Sort(buf[:n])
	return buf[(n*95+99)/100-1], true
}

// Client is the fault-tolerant side of the shard RPC: bounded retries
// with exponential backoff and jitter, hedged requests, per-replica
// circuit breakers with /readyz half-open probes, and replica failover.
// It is safe for concurrent use.
type Client struct {
	cfg    Config
	httpc  *http.Client
	shards []*shardState
	rec    *stats.Recorder
	// now is the breaker/hedge clock, swappable in tests.
	now func() time.Time
}

// NewClient validates the address table and builds a client.
func NewClient(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("remote: no shard addresses")
	}
	shards := make([]*shardState, len(cfg.Addrs))
	for i, reps := range cfg.Addrs {
		if len(reps) == 0 {
			return nil, fmt.Errorf("remote: shard %d has no replica addresses", i)
		}
		ss := &shardState{}
		for _, a := range reps {
			if strings.TrimSpace(a) == "" {
				return nil, fmt.Errorf("remote: shard %d has an empty replica address", i)
			}
			ss.replicas = append(ss.replicas, &replicaState{addr: a, br: newBreaker(cfg.Breaker)})
		}
		shards[i] = ss
	}
	transport := cfg.Transport
	if transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 16
		transport = t
	}
	return &Client{
		cfg:    cfg,
		httpc:  &http.Client{Transport: transport},
		shards: shards,
		rec:    cfg.Recorder,
		now:    time.Now,
	}, nil
}

// Shards returns the number of shards the client addresses.
func (c *Client) Shards() int { return len(c.shards) }

// Close releases idle transport connections.
func (c *Client) Close() {
	c.httpc.CloseIdleConnections()
}

// count bumps a recorder counter; nil-recorder safe.
func (c *Client) count(sel func(*stats.RemoteStats) *stats.Counter) {
	if c.rec != nil {
		sel(&c.rec.Remote).Add(1)
	}
}

// Query evaluates q on the shard and returns its local top-k (global
// ids) plus its static unseen bound (UB) and work counters — the one
// call a scatter-gather round makes per shard.
func (c *Client) Query(ctx context.Context, shard int, q core.Query) (*QueryResponse, error) {
	return c.call(ctx, shard, QueryRequest{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
}

// Meta fetches shard metadata from the first reachable replica, trying
// each in order without retries — a startup sanity check, not a serving
// path.
func (c *Client) Meta(ctx context.Context, shard int) (*Meta, error) {
	if shard < 0 || shard >= len(c.shards) {
		return nil, fmt.Errorf("remote: shard %d out of range", shard)
	}
	var lastErr error
	for _, rep := range c.shards[shard].replicas {
		actx, cancel := context.WithTimeout(ctx, c.attemptTimeout())
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.url(rep.addr)+"/shard/meta", nil)
		if err != nil {
			cancel()
			return nil, err
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		var m Meta
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&m)
		resp.Body.Close()
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		return &m, nil
	}
	return nil, fmt.Errorf("remote: shard %d meta: %w", shard, lastErr)
}

func (c *Client) attemptTimeout() time.Duration {
	if c.cfg.AttemptTimeout > 0 {
		return c.cfg.AttemptTimeout
	}
	return DefaultAttemptTimeout
}

func (c *Client) maxAttempts() int {
	if c.cfg.MaxAttempts > 0 {
		return c.cfg.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (c *Client) url(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// hedgeDelay resolves the hedge trigger for one shard: the configured
// fixed delay, or the shard's recent p95 once the window has signal.
func (c *Client) hedgeDelay(ss *shardState) time.Duration {
	if c.cfg.DisableHedge {
		return 0
	}
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	p95, ok := ss.p95()
	if !ok {
		return 0
	}
	if min := time.Millisecond; p95 < min {
		p95 = min
	}
	if max := c.attemptTimeout() / 2; p95 > max {
		p95 = max
	}
	return p95
}

// backoff sleeps the jittered exponential delay before retry round
// `round` (1-based); it returns false when ctx expired first.
func (c *Client) backoff(ctx context.Context, round int) bool {
	base := c.cfg.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	max := c.cfg.BackoffMax
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := base << (round - 1)
	if d > max || d <= 0 {
		d = max
	}
	// Full jitter over [d/2, d): desynchronizes retry storms while
	// keeping the expected wait close to the schedule.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// call runs one logical shard call through the full resilience stack.
func (c *Client) call(ctx context.Context, shard int, req QueryRequest) (*QueryResponse, error) {
	if shard < 0 || shard >= len(c.shards) {
		return nil, fmt.Errorf("remote: shard %d out of range [0,%d)", shard, len(c.shards))
	}
	ss := c.shards[shard]
	c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.Calls })

	var lastErr error
	maxAttempts := c.maxAttempts()
	for round := 0; round < maxAttempts; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if round > 0 {
			c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.Retries })
			if !c.backoff(ctx, round) {
				return nil, ctx.Err()
			}
		}
		rep, verdict := ss.pick(c.now())
		if rep == nil {
			c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.BreakerShortCircuits })
			lastErr = fmt.Errorf("remote: shard %d: %w", shard, ErrAllBreakersOpen)
			continue
		}
		if verdict == breakerProbe {
			// Half-open: one /readyz probe decides between re-admitting
			// this replica and another open period.
			c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.BreakerProbes })
			if err := c.probe(ctx, rep.addr); err != nil {
				if rep.br.onFailure(c.now()) {
					c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.BreakerOpens })
				}
				lastErr = fmt.Errorf("remote: shard %d replica %s probe: %w", shard, rep.addr, err)
				continue
			}
			rep.br.onSuccess()
		}
		resp, err, terminal := c.round(ctx, ss, rep, req)
		if err == nil {
			return resp, nil
		}
		lastErr = fmt.Errorf("remote: shard %d: %w", shard, err)
		if terminal {
			if ctx.Err() == nil {
				c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.Errors })
			}
			return nil, lastErr
		}
	}
	c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.Errors })
	return nil, lastErr
}

// attemptOut is one attempt's outcome in a hedged race.
type attemptOut struct {
	resp   *QueryResponse
	err    error
	rep    *replicaState
	hedged bool
}

// round runs one retry round: a primary attempt, optionally raced
// against a hedged attempt on another replica once the hedge delay
// elapses. It returns terminal=true for outcomes retrying cannot
// improve (success, parent-context cancellation, permanent statuses).
func (c *Client) round(ctx context.Context, ss *shardState, primary *replicaState, req QueryRequest) (resp *QueryResponse, err error, terminal bool) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	ch := make(chan attemptOut, 2)
	launch := func(rep *replicaState, hedged bool) {
		go func() {
			resp, err := c.attempt(rctx, ss, rep.addr, req)
			ch <- attemptOut{resp: resp, err: err, rep: rep, hedged: hedged}
		}()
	}
	launch(primary, false)
	inflight, hedged := 1, false

	var hedgeC <-chan time.Time
	if d := c.hedgeDelay(ss); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	for {
		select {
		case out := <-ch:
			inflight--
			if out.err == nil {
				out.rep.br.onSuccess()
				if hedged {
					if out.hedged {
						c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.HedgesWon })
					} else {
						c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.HedgesWasted })
					}
				}
				return out.resp, nil, true
			}
			if ctx.Err() != nil {
				// The caller gave up (deadline, or a client that went away):
				// not a replica failure.
				return nil, ctx.Err(), true
			}
			var pe *PermanentError
			if errors.As(out.err, &pe) {
				// The replica answered decisively; it is healthy and the
				// request will not get better. No breaker penalty, no retry.
				out.rep.br.onSuccess()
				return nil, out.err, true
			}
			if out.rep.br.onFailure(c.now()) {
				c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.BreakerOpens })
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %s: %w", out.rep.addr, out.err)
			}
			if inflight > 0 {
				continue // the race partner may still win
			}
			return nil, firstErr, false
		case <-hedgeC:
			hedgeC = nil
			if rep := ss.pickHedge(c.now(), primary); rep != nil {
				c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.HedgesStarted })
				launch(rep, true)
				inflight++
				hedged = true
			}
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
}

// attempt performs one HTTP request against one replica. The
// fault-injection sites model its network legs: dial (before the
// request), send (request transmission), recv (response stream).
func (c *Client) attempt(ctx context.Context, ss *shardState, addr string, req QueryRequest) (*QueryResponse, error) {
	c.count(func(r *stats.RemoteStats) *stats.Counter { return &r.Attempts })
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout())
	defer cancel()

	if err := faults.InjectCtx(actx, SiteDial); err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, c.url(addr)+"/shard/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if err := faults.InjectCtx(actx, SiteSend); err != nil {
		return nil, fmt.Errorf("send %s: %w", addr, err)
	}
	start := time.Now()
	hresp, err := c.httpc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(hresp.Body, 1<<16))
		hresp.Body.Close()
	}()
	if err := faults.InjectCtx(actx, SiteRecv); err != nil {
		return nil, fmt.Errorf("recv %s: %w", addr, err)
	}
	switch {
	case hresp.StatusCode == http.StatusOK:
		var out QueryResponse
		if err := json.NewDecoder(io.LimitReader(hresp.Body, maxResponseBytes)).Decode(&out); err != nil {
			return nil, fmt.Errorf("decoding %s response: %w", addr, err)
		}
		ss.observe(time.Since(start))
		return &out, nil
	case hresp.StatusCode >= 400 && hresp.StatusCode < 500 &&
		hresp.StatusCode != http.StatusRequestTimeout && hresp.StatusCode != http.StatusTooManyRequests:
		return nil, &PermanentError{Status: hresp.StatusCode, Msg: readErrBody(hresp.Body)}
	default:
		// 5xx, 408, 429: the replica (or its admission control) is
		// struggling; retry/failover may succeed.
		return nil, fmt.Errorf("%s answered %d: %s", addr, hresp.StatusCode, readErrBody(hresp.Body))
	}
}

// probe checks a half-open replica's /readyz before re-admitting it.
func (c *Client) probe(ctx context.Context, addr string) error {
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.url(addr)+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz answered %d: %s", resp.StatusCode, readErrBody(resp.Body))
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	return nil
}

// readErrBody extracts the uniform JSON error payload, falling back to
// the raw (truncated) body.
func readErrBody(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 1<<12))
	if err != nil || len(raw) == 0 {
		return "<no body>"
	}
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return strings.TrimSpace(string(raw))
}

// BreakerStates reports every replica breaker's current state, shard by
// shard — surfaced through /api/stats on the coordinator.
func (c *Client) BreakerStates() [][]string {
	now := c.now()
	out := make([][]string, len(c.shards))
	for i, ss := range c.shards {
		states := make([]string, len(ss.replicas))
		for j, rep := range ss.replicas {
			states[j] = rep.br.snapshotState(now)
		}
		out[i] = states
	}
	return out
}
