// Package engine provides the parallel k-SOI query engine: a batch
// executor that evaluates many ⟨Ψ, k, ε⟩ queries concurrently over one
// shared, read-only core.Index with a bounded worker pool, deduplicating
// identical in-flight queries and memoizing recent answers in an LRU
// cache keyed by the normalized query. Batches also share work below the
// result level: queries that differ only in k are coalesced into one
// evaluation at the largest k (every smaller answer is a rank prefix of
// the larger one). A batch over one index therefore performs strictly
// less work than evaluating its queries in isolation, with bit-identical
// results.
//
// The access schedule follows from what the executor serves, never from
// a knob (see New); answers do not depend on it.
//
// The executor relies on the Index read-only contract (see
// internal/core): after construction the index is immutable under query
// traffic, so any number of executor workers may read it concurrently.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/vocab"
)

// ErrOverloaded is returned when admission control sheds a query instead
// of queueing it: the bounded wait queue was at depth, or the configured
// maximum queue wait elapsed before a worker slot freed up. Callers
// should treat it as retryable backpressure (HTTP servers map it to
// 503 with a Retry-After hint).
var ErrOverloaded = errors.New("engine: overloaded")

// PanicError is the per-query error a recovered evaluation panic is
// converted into. The process keeps serving; Value carries the panic
// payload for logging.
type PanicError struct {
	Value any
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: evaluation panicked: %v", e.Value)
}

// SiteEvaluate is the fault-injection site visited by every evaluation
// after it acquires a worker slot, before the SOI algorithm runs (see
// internal/faults). The chaos suite arms it to wedge or crash workers.
const SiteEvaluate = "engine.evaluate"

// EpochSource resolves the index generation a query evaluates against.
// It is implemented by internal/ingest's Ingestor: AcquireEpoch pins the
// current immutable epoch (an atomic load plus a refcount increment —
// readers never lock) and returns its dense sequence number, its index
// and a release function the executor calls when the evaluation ends.
// The sequence number prefixes every result-cache and in-flight key, so
// entries cached under one epoch can never serve queries after a publish
// installs the next.
//
// The interface is defined here — in terms of core types only — so the
// ingest package can implement it without an import cycle.
type EpochSource interface {
	AcquireEpoch() (seq uint64, ix *core.Index, release func())
}

// Config controls executor construction.
type Config struct {
	// Workers bounds the number of queries evaluated concurrently — k-SOI
	// evaluations from Do and Batch and the queries admitted through Run
	// together; 0 or negative means GOMAXPROCS.
	Workers int
	// CacheSize is the maximum number of query results kept in the LRU
	// cache. 0 means DefaultCacheSize; negative disables caching.
	CacheSize int
	// MassCacheEntries is ignored: no executor keeps a segment-mass cache.
	// The field stays only because bench/layers.go still sets it (ROADMAP
	// 1(c)).
	MassCacheEntries int
	// QueueDepth bounds how many queries may wait for a worker slot at
	// once; excess load is shed immediately with ErrOverloaded instead of
	// queueing unboundedly. 0 disables the bound (every query waits),
	// preserving the pre-admission-control behavior for embedded use.
	QueueDepth int
	// MaxQueueWait bounds how long an admitted query may wait for a
	// worker slot before being shed with ErrOverloaded. 0 means no bound.
	MaxQueueWait time.Duration
	// QueryTimeout is the per-query deadline applied on top of the
	// caller's context to every Run query and to every Do and Batch query
	// the result cache does not answer. 0 means no engine-level deadline;
	// a caller deadline that is earlier always wins.
	QueryTimeout time.Duration
	// Recorder receives the cumulative observability counters and latency
	// histograms: cache traffic, worker-pool pressure, admission outcomes,
	// per-query wall time, and the folded Algorithm 1 pruning counters of
	// every evaluation. Nil means a private recorder, read through
	// Executor.Recorder.
	Recorder *stats.Recorder
	// Source, when non-nil, makes the executor resolve the serving index
	// per query through the epoch source instead of the fixed index
	// passed to New (which may then be nil): each evaluation pins the
	// current epoch for its duration, runs core.CostAware, and its results
	// are cached under the epoch's sequence number. When nil, the executor
	// serves the fixed index as implicit epoch 0 and evaluates with
	// core.Drain.
	Source EpochSource
}

// DefaultCacheSize is the LRU capacity used when Config leaves it zero.
const DefaultCacheSize = 1024

// Result is the outcome of one query evaluation.
type Result struct {
	// Streets may be shared with the cache and other callers; treat it
	// as read-only.
	Streets []core.StreetResult
	Stats   core.Stats
	Err     error
	// Cached reports whether the result was served without a fresh
	// evaluation: from the LRU cache, or by joining an identical
	// in-flight evaluation that succeeded (Stats then describes the
	// original evaluation). Errored results are never cached, so a
	// joined error reports Cached false.
	Cached bool
	// Epoch is the sequence number of the index epoch the result was
	// evaluated against (0 for executors without an EpochSource). A
	// cached result reports the epoch it was originally evaluated at,
	// which — because cache keys are epoch-prefixed — always equals the
	// epoch current when the hit was served.
	Epoch uint64

	// entry is the result-cache entry a cache hit was read from; nil for
	// a fresh evaluation, a dedup join and a batch member.
	entry *cacheEntry
}

// cacheEntry is one result-cache value: the evaluation's result and, once
// the entry has been hit, the serialised answer a caller built from it.
// The bytes belong to the entry, so whatever drops the entry — LRU
// eviction, Invalidate, an epoch change retiring its key — drops them.
type cacheEntry struct {
	res  Result
	once sync.Once
	body []byte
}

// EncodedBody returns the serialised answer kept with the cache entry the
// result was read from, or nil when it was not read from one (a miss, a
// dedup join, a batch member, caching disabled) — the caller then encodes
// as if there were no cache. The first hit on an entry runs encode and
// keeps what it returns; every later hit returns those bytes without
// calling encode, so an entry is encoded at most once and an entry that
// is never hit is never encoded. One executor's callers must agree on
// the encoding. The bytes are shared: read-only.
func (r Result) EncodedBody(encode func([]core.StreetResult) []byte) []byte {
	if r.entry == nil {
		return nil
	}
	r.entry.once.Do(func() { r.entry.body = encode(r.entry.res.Streets) })
	return r.entry.body
}

// Executor evaluates k-SOI queries over one shared index. It is safe for
// concurrent use.
type Executor struct {
	ix           *core.Index
	gate         *Gate         // bounds concurrent evaluations engine-wide
	queryTimeout time.Duration // 0 = no engine-level deadline
	strat        core.Strategy

	cache  *LRU[string, *cacheEntry] // nil when result caching is disabled
	rec    *stats.Recorder           // never nil
	source EpochSource               // nil for a fixed-index executor

	flightMu sync.Mutex
	flight   map[string]*flight
}

// flight is one in-progress evaluation that late arrivals can join.
type flight struct {
	done chan struct{}
	res  Result
}

// New builds an executor over the index. Its schedule follows from what
// it serves (DESIGN §11): a fixed index runs core.Drain, an epoch source
// core.CostAware.
func New(ix *core.Index, cfg Config) *Executor {
	e := &Executor{
		ix:           ix,
		gate:         NewGate(cfg.Workers, cfg.QueueDepth, cfg.MaxQueueWait),
		queryTimeout: cfg.QueryTimeout,
		strat:        core.Drain,
		flight:       make(map[string]*flight),
		rec:          cfg.Recorder,
		source:       cfg.Source,
	}
	if e.source != nil {
		e.strat = core.CostAware
	}
	if e.rec == nil {
		e.rec = stats.NewRecorder()
	}
	e.rec.Engine.Schedule.Store(e.strat.String())
	switch {
	case cfg.CacheSize == 0:
		e.cache = NewLRU[string, *cacheEntry](DefaultCacheSize)
	case cfg.CacheSize > 0:
		e.cache = NewLRU[string, *cacheEntry](int64(cfg.CacheSize))
	}
	return e
}

// acquireEpoch resolves the epoch one evaluation runs against: the
// pinned current epoch of the source, or the fixed index as epoch 0.
func (e *Executor) acquireEpoch() (uint64, *core.Index, func()) {
	if e.source == nil {
		return 0, e.ix, func() {}
	}
	return e.source.AcquireEpoch()
}

// Workers returns the worker-pool bound.
func (e *Executor) Workers() int { return e.gate.Slots() }

// Recorder returns the executor's observability recorder: the one
// Config named, or the private one New installed in its place.
func (e *Executor) Recorder() *stats.Recorder { return e.rec }

// Do evaluates one query, consulting the cache and joining an identical
// in-flight evaluation when possible. Invalid queries yield a Result with
// Err set, mirroring core.Index.SOI.
func (e *Executor) Do(q core.Query) Result {
	return e.DoCtx(context.Background(), q)
}

// DoCtx is Do under a context: the query observes cancellation at the
// engine's queue, at dedup joins and at the algorithm's cooperative
// checkpoints, and on a cache miss the executor's QueryTimeout (if any)
// is applied on top of the caller's deadline. The outcome is classified
// into the shed/cancelled/deadline-exceeded counters.
func (e *Executor) DoCtx(ctx context.Context, q core.Query) Result {
	e.rec.Engine.Queries.Add(1)
	if err := q.Validate(); err != nil {
		// Invalid queries are not cached: the error is cheaper to
		// recompute than a cache slot.
		return Result{Err: err}
	}
	res := e.eval(ctx, q)
	countOutcome(&e.rec.Engine.Outcomes, res.Err)
	return res
}

// Run admits one query of a family that does not go through Do — a
// route, trajectory, describe or tour plan — through the gate k-SOI
// evaluations queue behind (admit, so it shows in the engine's queue and
// in-flight gauges), under the same per-query deadline. Once a
// slot is held it pins the serving epoch, as eval does, and runs fn with
// the query's context and the epoch's index; the epoch is released only
// after fn returns. A refused query never runs fn. A panic in fn is
// isolated into a *PanicError, and the query's terminal error is folded
// into o, exactly as Do folds a k-SOI query's into the engine group.
func (e *Executor) Run(ctx context.Context, o *stats.Outcomes[stats.Counter], fn func(context.Context, *core.Index) error) (err error) {
	defer func() { countOutcome(o, err) }()
	ctx, cancel := e.withTimeout(ctx)
	defer cancel()
	if err := e.admit(ctx); err != nil {
		return err
	}
	defer e.leave()
	_, ix, release := e.acquireEpoch()
	defer release()
	defer recovered(o, &err)
	return fn(ctx, ix)
}

// withTimeout layers the engine's per-query deadline onto the caller's
// context; an earlier caller deadline always wins.
func (e *Executor) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.queryTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, e.queryTimeout)
}

// countOutcome folds one query's terminal error into its family's
// robustness counters: shed (ErrOverloaded), cancelled (context.Canceled)
// and deadline-exceeded (context.DeadlineExceeded). Called exactly once
// per query, so the counters account queries, not evaluations.
func countOutcome(o *stats.Outcomes[stats.Counter], err error) {
	switch {
	case err == nil:
	case errors.Is(err, ErrOverloaded):
		o.Shed.Add(1)
	case errors.Is(err, context.Canceled):
		o.Cancelled.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		o.DeadlineExceeded.Add(1)
	}
}

// recovered, deferred by a query body, isolates a panic into a per-query
// *PanicError counted in o: a crashed query releases its slot (the
// caller's defer), wakes its dedup joiners with the error, and leaves the
// process serving.
func recovered(o *stats.Outcomes[stats.Counter], err *error) {
	if v := recover(); v != nil {
		o.PanicsRecovered.Add(1)
		*err = &PanicError{Value: v}
	}
}

// isContextErr reports whether err is a cancellation or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// eval runs one validated query through the cache, the in-flight table
// and the bounded evaluation pool. A cache hit answers at once; the first
// miss arms the per-query deadline (withTimeout), which the dedup wait
// and the evaluation then run under. Dedup joins are context-aware: a
// joiner abandons the wait when its own context ends, and a joiner whose
// leader was cancelled (a failure of the leader's context, not the
// joiner's) retries the evaluation itself instead of inheriting an error
// it did not cause.
func (e *Executor) eval(ctx context.Context, q core.Query) Result {
	seq, ix, release := e.acquireEpoch()
	defer release()
	key := queryKey(q, seq)
	var cancel context.CancelFunc
	defer func() {
		if cancel != nil {
			cancel()
		}
	}()
	for {
		if e.cache != nil {
			if ce, ok := e.cache.Get(key); ok {
				e.rec.Engine.ResultCacheHits.Add(1)
				res := ce.res
				res.Cached, res.entry = true, ce
				return res
			}
			e.rec.Engine.ResultCacheMisses.Add(1)
		}
		if cancel == nil {
			ctx, cancel = e.withTimeout(ctx)
		}
		e.flightMu.Lock()
		if f, ok := e.flight[key]; ok {
			e.flightMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return Result{Err: ctx.Err()}
			}
			res := f.res
			if res.Err == nil {
				e.rec.Engine.DedupJoins.Add(1)
				res.Cached = true
				return res
			}
			if isContextErr(res.Err) && ctx.Err() == nil {
				// The leader's context ended, not ours: its flight entry
				// is gone, so loop and evaluate the query ourselves.
				continue
			}
			e.rec.Engine.DedupJoins.Add(1)
			// Errors are never cached, so a joined error is Cached: false.
			res.Cached = false
			return res
		}
		f := &flight{done: make(chan struct{})}
		e.flight[key] = f
		e.flightMu.Unlock()

		streets, st, err := e.evaluate(ctx, q, ix)
		f.res = Result{Streets: streets, Stats: st, Err: err, Epoch: seq}
		if err == nil && e.cache != nil {
			e.cache.Put(key, &cacheEntry{res: f.res}, 1)
		}
		e.flightMu.Lock()
		delete(e.flight, key)
		e.flightMu.Unlock()
		close(f.done)
		return f.res
	}
}

// admit takes a slot in the executor's gate, which bounds concurrent
// queries engine-wide: Batch workers, direct Do callers (e.g. HTTP
// handlers) and every query admitted through Run. A query that cannot
// get a slot in time returns the gate's error and must not run. The
// recorder observes queue depth, queue wait and in-flight count for
// queries of every family. A nil error must be paired with leave.
func (e *Executor) admit(ctx context.Context) error {
	rec := &e.rec.Engine
	rec.PeakQueueDepth.SetMax(rec.QueueDepth.Add(1))
	waitStart := time.Now()
	err := e.gate.Acquire(ctx)
	rec.QueueDepth.Add(-1)
	rec.QueueWait.Observe(time.Since(waitStart))
	if err != nil {
		return err
	}
	rec.PeakInFlight.SetMax(rec.InFlight.Add(1))
	return nil
}

// leave gives back the slot admit took.
func (e *Executor) leave() {
	e.rec.Engine.InFlight.Add(-1)
	e.gate.Release()
}

// evaluate runs one SOI evaluation behind the executor's gate (admit).
// The recorder observes evaluation wall time and the run's pruning
// counters.
func (e *Executor) evaluate(ctx context.Context, q core.Query, ix *core.Index) ([]core.StreetResult, core.Stats, error) {
	if err := e.admit(ctx); err != nil {
		return nil, core.Stats{}, err
	}
	defer e.leave()
	rec := e.rec
	start := time.Now()
	streets, st, err := e.run(ctx, q, ix)
	elapsed := time.Since(start)
	rec.Engine.Evaluations.Add(1)
	rec.Engine.BusyNanos.Add(elapsed.Nanoseconds())
	rec.Engine.QueryLatency.Observe(elapsed)
	st.Record(rec)
	return streets, st, err
}

// run executes one evaluation with panic isolation (recovered): a
// panic anywhere in the algorithm leaves no results, only the error.
func (e *Executor) run(ctx context.Context, q core.Query, ix *core.Index) (streets []core.StreetResult, st core.Stats, err error) {
	defer recovered(&e.rec.Engine.Outcomes, &err)
	if ferr := faults.InjectCtx(ctx, SiteEvaluate); ferr != nil {
		return nil, core.Stats{}, ferr
	}
	return ix.SOIContext(ctx, q, e.strat, nil)
}

// Batch evaluates the queries concurrently over the shared index with at
// most Workers evaluations in flight, returning results in input order.
//
// Queries that share ⟨Ψ, ε⟩ and differ only in k are coalesced
// into a single evaluation at the group's largest k: the evaluation is
// exact and ranks canonically (interest descending, street id ascending),
// so every smaller-k answer is the first k entries of the larger one,
// bit-identical to evaluating it alone. A coalesced entry's Stats
// describe the shared evaluation.
func (e *Executor) Batch(qs []core.Query) []Result {
	return e.BatchCtx(context.Background(), qs)
}

// BatchCtx is Batch under a context: every group the cache does not
// answer runs with the engine's QueryTimeout layered onto the caller's
// context, and a cancelled context fails the not-yet-evaluated remainder
// of the batch promptly (each entry independently, mirroring Batch's
// per-query error semantics).
func (e *Executor) BatchCtx(ctx context.Context, qs []core.Query) []Result {
	out := make([]Result, len(qs))
	type group struct {
		rep     core.Query // representative query; K is the group maximum
		members []int
	}
	groups := make(map[string]*group, len(qs))
	var order []string
	e.rec.Engine.BatchRequests.Add(1)
	e.rec.Engine.BatchQueries.Add(int64(len(qs)))
	e.rec.Engine.Queries.Add(int64(len(qs)))
	for i, q := range qs {
		if err := q.Validate(); err != nil {
			out[i] = Result{Err: err}
			continue
		}
		gk := groupKey(q)
		g, ok := groups[gk]
		if !ok {
			g = &group{rep: q}
			groups[gk] = g
			order = append(order, gk)
		} else if q.K > g.rep.K {
			g.rep.K = q.K
		}
		g.members = append(g.members, i)
	}
	e.rec.Engine.BatchGroups.Add(int64(len(order)))
	workers := e.Workers()
	if workers > len(order) {
		workers = len(order)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(order) {
					return
				}
				g := groups[order[gi]]
				res := e.eval(ctx, g.rep)
				for _, i := range g.members {
					out[i] = prefix(res, qs[i].K)
					countOutcome(&e.rec.Engine.Outcomes, out[i].Err)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// prefix derives a smaller-k result from a shared evaluation at a larger
// k over the same ⟨Ψ, ε⟩. The slice header is re-cut rather than
// copied; Result.Streets is read-only by contract.
func prefix(res Result, k int) Result {
	res.entry = nil // the entry's encoded body is the whole group's answer
	if res.Err == nil && len(res.Streets) > k {
		res.Streets = res.Streets[:k]
	}
	return res
}

// writeKeyBase writes the query identity shared by every k: the keyword
// set normalized the way the index resolves it (lower-cased, trimmed,
// sorted, deduplicated) and the exact bits of ε.
func writeKeyBase(b *strings.Builder, q core.Query) {
	kws := make([]string, 0, len(q.Keywords))
	for _, k := range q.Keywords {
		kws = append(kws, vocab.Normalize(k))
	}
	sort.Strings(kws)
	for i, k := range kws {
		if i > 0 && kws[i-1] == k {
			continue
		}
		b.WriteString(k)
		b.WriteByte(0x1f)
	}
	b.WriteString(strconv.FormatFloat(q.Epsilon, 'b', -1, 64))
}

// queryKey is the full cache identity of a query: the epoch sequence
// number the evaluation is pinned to, the base identity, and k. The
// epoch prefix is what makes publishes invalidate by construction —
// post-publish queries look up under the new sequence and can never see
// an entry cached under an old epoch.
func queryKey(q core.Query, seq uint64) string {
	var b strings.Builder
	b.WriteString(strconv.FormatUint(seq, 10))
	b.WriteByte(0x1f)
	writeKeyBase(&b, q)
	b.WriteByte(0x1f)
	b.WriteString(strconv.Itoa(q.K))
	return b.String()
}

// groupKey is the k-independent identity used to coalesce batch queries.
func groupKey(q core.Query) string {
	var b strings.Builder
	writeKeyBase(&b, q)
	return b.String()
}
