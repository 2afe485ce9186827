// Package stats is the observability substrate of the SOI system: a
// lightweight, allocation-free Recorder of cumulative runtime counters
// and fixed-bucket latency histograms, plus the ranking-quality measures
// (recall, precision, nDCG, Kendall's tau) used by the effectiveness
// experiments.
//
// The Recorder mirrors the paper's Section 6 evaluation internals —
// accessed cells and segments, filter-versus-refine cost — as live
// counters so a served system can be tuned by the same signals the paper
// reports. It is organized in six groups matching the layers that feed
// it: Core (Algorithm 1 source-list pops, cell visits, refinements),
// Engine (result-cache traffic, in-flight dedup joins, worker-pool
// pressure, query latency), Diversify (Algorithm 2 greedy iterations and
// pruning, the describe-context memo), Ingest (the epoch write path),
// Remote (the cross-process shard client) and Traj (routes and
// trajectory SOI).
//
// Each counter is declared once, as one tagged field of a generic group
// type (CoreGroup … TrajGroup, Outcomes). The Recorder instantiates the
// groups over Counter, Histogram and Label; its Snapshot instantiates the
// same groups over int64, HistogramSnapshot and string, and Snapshot
// copies field i to field i. The json tags name the /api/stats keys, and
// /metrics derives from them (expose.go): a value is soi_<group>_<field>
// with a _total suffix for a counter, none for a field tagged
// metric:"gauge", _seconds for a histogram; the engine's embedded
// Outcomes is tagged metric:"bare" and drops the engine_ prefix; json:"-"
// fields are not exposed.
//
// All fields are safe for concurrent update and may be read at any time
// with Snapshot. The fold helpers (core.Stats.Record,
// diversify.Stats.Record) accept a nil *Recorder as "do not record"; the
// engine's executor always has one. Either way nothing touches a recorder
// on the per-cell and per-segment hot paths, which accumulate into their
// existing per-run structs and fold once at the end of the run.
package stats

import (
	"reflect"
	"sync/atomic"
)

// Counter is a cumulative, race-clean counter (or gauge, when
// incremented and decremented). The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n and returns the new value.
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// SetMax raises the counter to v if v is larger, keeping the historical
// maximum of a gauge.
func (c *Counter) SetMax(v int64) {
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Store overwrites the counter with v. Used for gauges whose
// authoritative value lives elsewhere (e.g. the current epoch sequence
// or the pending-delta depth) and is mirrored into the recorder.
func (c *Counter) Store(v int64) { c.v.Store(v) }

// Label is a race-clean string set once by its owner and read by
// snapshots. The zero value is ready to use and reads "".
type Label struct {
	v atomic.Pointer[string]
}

// Store sets the label.
func (l *Label) Store(s string) { l.v.Store(&s) }

// Load returns the label, "" when never stored.
func (l *Label) Load() string {
	if p := l.v.Load(); p != nil {
		return *p
	}
	return ""
}

// CoreGroup aggregates Algorithm 1 work across every evaluation: the
// paper's "accessed cells and segments" (Sec. 6) as cumulative totals.
type CoreGroup[C any] struct {
	// Evaluations counts SOI runs folded into this group.
	Evaluations C `json:"evaluations"`
	// SL1CellsPopped counts pops from source list SL1 (cells in
	// decreasing relevant-weight order).
	SL1CellsPopped C `json:"sl1_cells_popped"`
	// SL2SegmentsPopped and SL3SegmentsPopped count segment finalizations
	// driven by SL2 (cell-count order) and SL3 (length order).
	SL2SegmentsPopped C `json:"sl2_segments_popped"`
	SL3SegmentsPopped C `json:"sl3_segments_popped"`
	// FilterIterations counts UB/LBk loop iterations of the filter phase.
	FilterIterations C `json:"filter_iterations"`
	// CellVisits counts UpdateInterest invocations that did work.
	CellVisits C `json:"cell_visits"`
	// SegmentsSeen and SegmentsFinal count segments that left the unseen
	// state and segments whose exact interest was computed.
	SegmentsSeen  C `json:"segments_seen"`
	SegmentsFinal C `json:"segments_final"`
	// RefineDrained counts segments drained to exact mass during the
	// refinement phase (the paper's "as necessary" finalizations).
	RefineDrained C `json:"refine_drained"`
	// BuildListsNanos, FilterNanos and RefineNanos accumulate the
	// per-phase wall time (the paper's Figure 4 breakdown).
	BuildListsNanos C `json:"build_lists_ns"`
	FilterNanos     C `json:"filter_ns"`
	RefineNanos     C `json:"refine_ns"`
	// MassCacheHits and MassCacheMisses are always 0 and never exposed:
	// there is no segment-mass cache. They stay only because
	// bench/layers.go still reads them (ROADMAP 1(c)).
	MassCacheHits   C `json:"-"`
	MassCacheMisses C `json:"-"`
}

// EngineGroup aggregates the batch executor's traffic and worker-pool
// pressure.
type EngineGroup[C, H, L any] struct {
	// Schedule names the access schedule (core.Strategy's String) of the
	// executor feeding this recorder, stored by engine.New: the Core
	// counters of a "drain" process and a "cost-aware" one count different
	// work for the same queries. Unset on a remote coordinator's recorder.
	Schedule L `json:"schedule,omitempty"`
	// Queries counts every query received (Do and Batch).
	Queries C `json:"queries"`
	// ResultCacheHits / ResultCacheMisses count LRU result-cache lookups.
	ResultCacheHits   C `json:"result_cache_hits"`
	ResultCacheMisses C `json:"result_cache_misses"`
	// ResultBodyReuse counts result-cache hits answered with the encoded
	// body the entry already held, with no serialisation at all.
	ResultBodyReuse C `json:"result_body_reuse"`
	// DedupJoins counts queries that joined an identical in-flight
	// evaluation instead of starting their own.
	DedupJoins C `json:"dedup_joins"`
	// Evaluations counts queries that ran the SOI algorithm.
	Evaluations C `json:"evaluations"`
	// BatchRequests, BatchQueries and BatchGroups count Batch calls,
	// their queries, and the coalesced ⟨Ψ, ε⟩ groups actually evaluated.
	BatchRequests C `json:"batch_requests"`
	BatchQueries  C `json:"batch_queries"`
	BatchGroups   C `json:"batch_groups"`
	// InFlight is the number of queries of every family currently
	// holding a worker slot; PeakInFlight its historical maximum.
	InFlight     C `json:"in_flight" metric:"gauge"`
	PeakInFlight C `json:"peak_in_flight" metric:"gauge"`
	// QueueDepth is the number of queries of every family currently
	// blocked waiting for a worker slot; PeakQueueDepth its historical
	// maximum.
	QueueDepth     C `json:"queue_depth" metric:"gauge"`
	PeakQueueDepth C `json:"peak_queue_depth" metric:"gauge"`
	// BusyNanos accumulates wall time spent inside k-SOI evaluations;
	// their share of the workers over an interval is
	// BusyNanos / (workers × interval).
	BusyNanos C `json:"busy_ns"`
	// Outcomes counts the k-SOI queries that did not answer. Its metrics
	// are un-prefixed so they read as service-level counters
	// (soi_shed_total, soi_cancelled_total, …).
	Outcomes[C] `metric:"bare"`
	// QueueWait is the distribution of time queries of every family spent
	// waiting for a worker slot; QueryLatency the distribution of k-SOI
	// evaluation wall time.
	QueueWait    H `json:"queue_wait"`
	QueryLatency H `json:"query_latency"`
}

// DiversifyGroup aggregates Algorithm 2 (ST_Rel+Div) work.
type DiversifyGroup[C any] struct {
	// Summaries counts summary constructions folded into this group.
	Summaries C `json:"summaries"`
	// Iterations counts greedy MMR selection rounds.
	Iterations C `json:"iterations"`
	// CandidatePhotos accumulates |Rs|, the candidate pool size.
	CandidatePhotos C `json:"candidate_photos"`
	// PhotosEvaluated, CellsExamined and CellsPruned mirror the
	// filter/refine pruning measures of Section 6.2.
	PhotosEvaluated C `json:"photos_evaluated"`
	CellsExamined   C `json:"cells_examined"`
	CellsPruned     C `json:"cells_pruned"`
	// SummaryNanos accumulates summary construction wall time.
	SummaryNanos C `json:"summary_ns"`
	// ContextMemoHits / ContextMemoMisses count describe requests that
	// found their (street, ε, ρ) context in the engine's memo, and those
	// that built it; ContextMemoEvictions counts contexts the memo's
	// photo budget pushed out. ContextMemoPhotos is a gauge: Σ|Rs| over
	// the contexts the memo holds.
	ContextMemoHits      C `json:"context_memo_hits"`
	ContextMemoMisses    C `json:"context_memo_misses"`
	ContextMemoEvictions C `json:"context_memo_evictions"`
	ContextMemoPhotos    C `json:"context_memo_photos" metric:"gauge"`
}

// IngestGroup aggregates the epoch-based write path: delta-log traffic,
// epoch publishes, compactions and the epoch lifecycle gauges.
type IngestGroup[C any] struct {
	// DeltasAppended counts POI deltas accepted into the delta log.
	DeltasAppended C `json:"deltas_appended"`
	// DeltasPending is a gauge: deltas appended but not yet folded into
	// a published epoch.
	DeltasPending C `json:"deltas_pending" metric:"gauge"`
	// Publishes counts successful epoch publishes (pointer swaps that
	// installed a new epoch built from base + delta log).
	Publishes C `json:"publishes"`
	// Compactions counts successful compactions (delta log folded into
	// the base, old epochs retired).
	Compactions C `json:"compactions"`
	// EpochSeq is a gauge: the sequence number of the currently
	// installed epoch.
	EpochSeq C `json:"epoch_seq" metric:"gauge"`
	// EpochsLive is a gauge: epochs whose refcount has not drained to
	// zero (the installed epoch plus any still pinned by in-flight
	// queries). EpochsRetired counts epochs fully released.
	EpochsLive    C `json:"epochs_live" metric:"gauge"`
	EpochsRetired C `json:"epochs_retired"`
	// PublishNanos and CompactNanos accumulate publish and compaction
	// wall time. PublishExtendNanos, PublishSlabNanos and
	// PublishOpenNanos split the publishes' epoch builds into extending
	// the previous epoch's corpus, building the slab and opening the
	// index over it.
	PublishNanos       C `json:"publish_ns"`
	PublishExtendNanos C `json:"publish_extend_ns"`
	PublishSlabNanos   C `json:"publish_slab_ns"`
	PublishOpenNanos   C `json:"publish_open_ns"`
	CompactNanos       C `json:"compact_ns"`
}

// RemoteGroup aggregates the cross-process scatter-gather path: the
// fault-tolerant shard client's attempt/retry/hedge traffic, circuit
// breaker lifecycle, and the coordinator's degradation outcomes.
type RemoteGroup[C any] struct {
	// Calls counts logical shard calls (one per shard per gather);
	// Attempts counts the HTTP attempts they expanded into (first tries,
	// retries and hedges alike).
	Calls    C `json:"calls"`
	Attempts C `json:"attempts"`
	// Retries counts attempts beyond a call's first (hedges excluded).
	Retries C `json:"retries"`
	// HedgesStarted counts speculative second attempts launched after
	// the hedge delay; HedgesWon counts hedges whose response was used,
	// HedgesWasted counts hedges whose primary finished first.
	HedgesStarted C `json:"hedges_started"`
	HedgesWon     C `json:"hedges_won"`
	HedgesWasted  C `json:"hedges_wasted"`
	// BreakerOpens counts closed→open transitions; BreakerProbes counts
	// half-open readiness probes; BreakerShortCircuits counts attempts
	// denied because every eligible replica's breaker was open.
	BreakerOpens         C `json:"breaker_opens"`
	BreakerProbes        C `json:"breaker_probes"`
	BreakerShortCircuits C `json:"breaker_short_circuits"`
	// Errors counts calls that failed after exhausting replicas and the
	// retry budget.
	Errors C `json:"errors"`
	// Degraded counts coordinator answers served with one or more shards
	// missing; ShardsMissing sums the shards those answers were missing.
	Degraded      C `json:"degraded"`
	ShardsMissing C `json:"shards_missing"`
	// ShardsEvaluated and ShardsPruned split the shards that answered
	// an answered query (shard.GatherStats): those whose results were
	// merged, and those that answered but were not merged — their static
	// bound was 0 or strictly below the merged LBk. Their ratio is how
	// often the bound closes; a pruned shard's evaluation was still paid
	// for unless its bound was 0.
	ShardsEvaluated C `json:"shards_evaluated"`
	ShardsPruned    C `json:"shards_pruned"`
}

// TrajGroup aggregates the trajectory query family: route searches,
// trace matching and their admission outcomes.
type TrajGroup[C any] struct {
	// RouteQueries and TrajQueries count k-routes and trajectory-SOI
	// queries received.
	RouteQueries C `json:"route_queries"`
	TrajQueries  C `json:"traj_queries"`
	// Expansions accumulates route-search frontier pops.
	Expansions C `json:"expansions"`
	// VerticesSettled and SegmentsFolded accumulate the route searches'
	// work before the first expansion: vertices settled by the two
	// budget-bounded Dijkstra runs, and budget-feasible segments whose
	// interest was requested. Per query they track the budget ball, not
	// the network.
	VerticesSettled C `json:"vertices_settled"`
	SegmentsFolded  C `json:"segments_folded"`
	// CorridorSegments accumulates the trajectory-SOI corridors: the
	// distinct segments each query's traces matched, one interest
	// requested each. Per query it tracks the trace, not the network.
	CorridorSegments C `json:"corridor_segments"`
	// TracePoints and MatchedPoints count trace points examined and
	// those that snapped to a segment.
	TracePoints   C `json:"trace_points"`
	MatchedPoints C `json:"matched_points"`
	// Outcomes counts the routes, trajectory, describe and tour-planning
	// queries that did not answer.
	Outcomes[C]
	// SearchNanos accumulates wall time inside route searches, and
	// MatchNanos inside whole trajectory-SOI evaluations — matching, the
	// corridor fold and the ranking, not matching alone.
	SearchNanos C `json:"search_ns"`
	MatchNanos  C `json:"match_ns"`
	// InterestMemoHits and InterestMemoMisses split the interests
	// requested (SegmentsFolded plus CorridorSegments) between the
	// epoch's interest memo and actual folds: misses count the folds.
	// InterestMemoResets counts the times the memo filled and was
	// dropped; InterestMemoEntries is the entries held by the memo of the
	// epoch that served the latest route or trajectory request.
	InterestMemoHits    C `json:"interest_memo_hits"`
	InterestMemoMisses  C `json:"interest_memo_misses"`
	InterestMemoResets  C `json:"interest_memo_resets"`
	InterestMemoEntries C `json:"interest_memo_entries" metric:"gauge"`
}

// Outcomes counts how the queries of one family that did not answer
// ended. Every family is admitted through the same gate
// (internal/engine), which folds each query's terminal error into the
// family's Outcomes once.
type Outcomes[C any] struct {
	// Shed counts queries rejected by admission control (ErrOverloaded):
	// the wait queue was at depth or the max queue wait elapsed.
	Shed C `json:"shed"`
	// Cancelled counts queries that ended with context.Canceled — the
	// 499-style "client went away" outcome.
	Cancelled C `json:"cancelled"`
	// DeadlineExceeded counts queries that ended with
	// context.DeadlineExceeded (per-query deadline or caller timeout).
	DeadlineExceeded C `json:"deadline_exceeded"`
	// PanicsRecovered counts evaluations that panicked and were isolated
	// into a per-query error instead of crashing the process.
	PanicsRecovered C `json:"panics_recovered"`
}

// groups lays out the six groups once for the Recorder (live values)
// and its Snapshot (their copies).
type groups[C, H, L any] struct {
	Core      CoreGroup[C]         `json:"core"`
	Engine    EngineGroup[C, H, L] `json:"engine"`
	Diversify DiversifyGroup[C]    `json:"diversify"`
	Ingest    IngestGroup[C]       `json:"ingest"`
	Remote    RemoteGroup[C]       `json:"remote"`
	Traj      TrajGroup[C]         `json:"traj"`
}

// The live groups, as the layers that feed the recorder name them.
type (
	CoreStats      = CoreGroup[Counter]
	EngineStats    = EngineGroup[Counter, Histogram, Label]
	DiversifyStats = DiversifyGroup[Counter]
	IngestStats    = IngestGroup[Counter]
	RemoteStats    = RemoteGroup[Counter]
	TrajStats      = TrajGroup[Counter]
)

// The JSON forms of the live groups.
type (
	CoreSnapshot      = CoreGroup[int64]
	EngineSnapshot    = EngineGroup[int64, HistogramSnapshot, string]
	DiversifySnapshot = DiversifyGroup[int64]
	IngestSnapshot    = IngestGroup[int64]
	RemoteSnapshot    = RemoteGroup[int64]
	TrajSnapshot      = TrajGroup[int64]
)

// Recorder is the process-wide sink for observability counters: the six
// groups over live counters. One recorder is owned by the soi.Engine and
// shared by every layer under it; a nil *Recorder disables recording
// entirely.
type Recorder groups[Counter, Histogram, Label]

// NewRecorder returns a zeroed recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Snapshot is a point-in-time copy of every recorder value (the same six
// groups over plain values), safe to serialize while traffic continues.
type Snapshot groups[int64, HistogramSnapshot, string]

// Snapshot copies the current counter and histogram values. Each counter
// is read atomically; the snapshot as a whole is not one instant, which
// is fine for monitoring. A nil recorder yields a zero snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r != nil {
		load(reflect.ValueOf(&s).Elem(), reflect.ValueOf(r).Elem())
	}
	return s
}

// load copies every live value under src into the same field of dst:
// the two are instantiations of one group type, so field i of one is
// field i of the other.
func load(dst, src reflect.Value) {
	switch p := src.Addr().Interface().(type) {
	case *Counter:
		dst.SetInt(p.Load())
	case *Histogram:
		dst.Set(reflect.ValueOf(p.Snapshot()))
	case *Label:
		dst.SetString(p.Load())
	default:
		for i := 0; i < src.NumField(); i++ {
			load(dst.Field(i), src.Field(i))
		}
	}
}
