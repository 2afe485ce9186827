// Package stats is the observability substrate of the SOI system: a
// lightweight, allocation-free Recorder of cumulative runtime counters
// and fixed-bucket latency histograms, plus the ranking-quality measures
// (recall, precision, nDCG, Kendall's tau) used by the effectiveness
// experiments.
//
// The Recorder mirrors the paper's Section 6 evaluation internals —
// accessed cells and segments, filter-versus-refine cost — as live
// counters so a served system can be tuned by the same signals the paper
// reports. It is organized in three groups matching the layers that feed
// it: Core (Algorithm 1 source-list pops, cell visits, refinements),
// Engine (result-cache traffic, in-flight dedup joins,
// worker-pool pressure, query latency) and Diversify (Algorithm 2 greedy
// iterations and pruning).
//
// All fields are safe for concurrent update and may be read at any time
// with Snapshot. The fold helpers (core.Stats.Record,
// diversify.Stats.Record) accept a nil *Recorder as "do not record"; the
// engine's executor always has one. Either way nothing touches a recorder
// on the per-cell and per-segment hot paths, which accumulate into their
// existing per-run structs and fold once at the end of the run.
package stats

import "sync/atomic"

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

// CoreStats aggregates Algorithm 1 work across every evaluation: the
// paper's "accessed cells and segments" (Sec. 6) as cumulative totals.
type CoreStats struct {
	// Evaluations counts SOI runs folded into this group.
	Evaluations Counter
	// SL1CellsPopped counts pops from source list SL1 (cells in
	// decreasing relevant-weight order).
	SL1CellsPopped Counter
	// SL2SegmentsPopped and SL3SegmentsPopped count segment finalizations
	// driven by SL2 (cell-count order) and SL3 (length order).
	SL2SegmentsPopped Counter
	SL3SegmentsPopped Counter
	// FilterIterations counts UB/LBk loop iterations of the filter phase.
	FilterIterations Counter
	// CellVisits counts UpdateInterest invocations that did work.
	CellVisits Counter
	// SegmentsSeen and SegmentsFinal count segments that left the unseen
	// state and segments whose exact interest was computed.
	SegmentsSeen  Counter
	SegmentsFinal Counter
	// RefineDrained counts segments drained to exact mass during the
	// refinement phase (the paper's "as necessary" finalizations).
	RefineDrained Counter
	// BuildListsNanos, FilterNanos and RefineNanos accumulate the
	// per-phase wall time (the paper's Figure 4 breakdown).
	BuildListsNanos Counter
	FilterNanos     Counter
	RefineNanos     Counter
}

// EngineStats aggregates the batch executor's traffic and worker-pool
// pressure.
type EngineStats struct {
	// Schedule names the access schedule (core.Strategy's String) of the
	// executor feeding this recorder, stored by engine.New: the Core
	// counters of a "drain" process and a "cost-aware" one count different
	// work for the same queries. Unset on a remote coordinator's recorder.
	Schedule atomic.Value // string
	// Queries counts every query received (Do and Batch).
	Queries Counter
	// ResultCacheHits / ResultCacheMisses count LRU result-cache lookups.
	ResultCacheHits   Counter
	ResultCacheMisses Counter
	// ResultBodyReuse counts result-cache hits answered with the encoded
	// body the entry already held, with no serialisation at all.
	ResultBodyReuse Counter
	// DedupJoins counts queries that joined an identical in-flight
	// evaluation instead of starting their own.
	DedupJoins Counter
	// Evaluations counts queries that ran the SOI algorithm.
	Evaluations Counter
	// BatchRequests, BatchQueries and BatchGroups count Batch calls,
	// their queries, and the coalesced ⟨Ψ, ε⟩ groups actually evaluated.
	BatchRequests Counter
	BatchQueries  Counter
	BatchGroups   Counter
	// InFlight is the number of evaluations currently holding a worker
	// slot; PeakInFlight its historical maximum.
	InFlight     Counter
	PeakInFlight Counter
	// QueueDepth is the number of evaluations currently blocked waiting
	// for a worker slot; PeakQueueDepth its historical maximum.
	QueueDepth     Counter
	PeakQueueDepth Counter
	// BusyNanos accumulates wall time spent inside evaluations;
	// utilization over an interval is BusyNanos / (workers × interval).
	BusyNanos Counter
	// Outcomes counts the k-SOI queries that did not answer.
	Outcomes
	// QueueWait is the distribution of time spent waiting for a worker
	// slot; QueryLatency the distribution of evaluation wall time.
	QueueWait    Histogram
	QueryLatency Histogram
}

// DiversifyStats aggregates Algorithm 2 (ST_Rel+Div) work.
type DiversifyStats struct {
	// Summaries counts summary constructions folded into this group.
	Summaries Counter
	// Iterations counts greedy MMR selection rounds.
	Iterations Counter
	// CandidatePhotos accumulates |Rs|, the candidate pool size.
	CandidatePhotos Counter
	// PhotosEvaluated, CellsExamined and CellsPruned mirror the
	// filter/refine pruning measures of Section 6.2.
	PhotosEvaluated Counter
	CellsExamined   Counter
	CellsPruned     Counter
	// SummaryNanos accumulates summary construction wall time.
	SummaryNanos Counter
	// ContextMemoHits / ContextMemoMisses count describe requests that
	// found their (street, ε, ρ) context in the engine's memo, and those
	// that built it; ContextMemoEvictions counts contexts the memo's
	// photo budget pushed out. ContextMemoPhotos is a gauge: Σ|Rs| over
	// the contexts the memo holds.
	ContextMemoHits      Counter
	ContextMemoMisses    Counter
	ContextMemoEvictions Counter
	ContextMemoPhotos    Counter
}

// IngestStats aggregates the epoch-based write path: delta-log traffic,
// epoch publishes, compactions and the epoch lifecycle gauges.
type IngestStats struct {
	// DeltasAppended counts POI deltas accepted into the delta log.
	DeltasAppended Counter
	// DeltasPending is a gauge: deltas appended but not yet folded into
	// a published epoch.
	DeltasPending Counter
	// Publishes counts successful epoch publishes (pointer swaps that
	// installed a new epoch built from base + delta log).
	Publishes Counter
	// Compactions counts successful compactions (delta log folded into
	// the base, old epochs retired).
	Compactions Counter
	// EpochSeq is a gauge: the sequence number of the currently
	// installed epoch.
	EpochSeq Counter
	// EpochsLive is a gauge: epochs whose refcount has not drained to
	// zero (the installed epoch plus any still pinned by in-flight
	// queries). EpochsRetired counts epochs fully released.
	EpochsLive    Counter
	EpochsRetired Counter
	// PublishNanos and CompactNanos accumulate publish and compaction
	// wall time. PublishExtendNanos, PublishSlabNanos and
	// PublishOpenNanos split the publishes' epoch builds into extending
	// the previous epoch's corpus, building the slab and opening the
	// index over it.
	PublishNanos       Counter
	PublishExtendNanos Counter
	PublishSlabNanos   Counter
	PublishOpenNanos   Counter
	CompactNanos       Counter
}

// RemoteStats aggregates the cross-process scatter-gather path: the
// fault-tolerant shard client's attempt/retry/hedge traffic, circuit
// breaker lifecycle, and the coordinator's degradation outcomes.
type RemoteStats struct {
	// Calls counts logical shard calls (one per shard per gather);
	// Attempts counts the HTTP attempts they expanded into (first tries,
	// retries and hedges alike).
	Calls    Counter
	Attempts Counter
	// Retries counts attempts beyond a call's first (hedges excluded).
	Retries Counter
	// HedgesStarted counts speculative second attempts launched after
	// the hedge delay; HedgesWon counts hedges whose response was used,
	// HedgesWasted counts hedges whose primary finished first.
	HedgesStarted Counter
	HedgesWon     Counter
	HedgesWasted  Counter
	// BreakerOpens counts closed→open transitions; BreakerProbes counts
	// half-open readiness probes; BreakerShortCircuits counts attempts
	// denied because every eligible replica's breaker was open.
	BreakerOpens         Counter
	BreakerProbes        Counter
	BreakerShortCircuits Counter
	// Errors counts calls that failed after exhausting replicas and the
	// retry budget.
	Errors Counter
	// Degraded counts coordinator answers served with one or more shards
	// missing; ShardsMissing sums the shards those answers were missing.
	Degraded      Counter
	ShardsMissing Counter
	// ShardsEvaluated and ShardsPruned split the shards that answered
	// an answered query (shard.GatherStats): those whose results were
	// merged, and those that answered but were not merged — their static
	// bound was 0 or strictly below the merged LBk. Their ratio is how
	// often the bound closes; a pruned shard's evaluation was still paid
	// for unless its bound was 0.
	ShardsEvaluated Counter
	ShardsPruned    Counter
}

// TrajStats aggregates the trajectory query family: route searches,
// trace matching and their admission outcomes.
type TrajStats struct {
	// RouteQueries and TrajQueries count k-routes and trajectory-SOI
	// queries received.
	RouteQueries Counter
	TrajQueries  Counter
	// Expansions accumulates route-search frontier pops.
	Expansions Counter
	// VerticesSettled and SegmentsFolded accumulate the route searches'
	// work before the first expansion: vertices settled by the two
	// budget-bounded Dijkstra runs, and budget-feasible segments whose
	// interest was requested. Per query they track the budget ball, not
	// the network.
	VerticesSettled Counter
	SegmentsFolded  Counter
	// CorridorSegments accumulates the trajectory-SOI corridors: the
	// distinct segments each query's traces matched, one interest
	// requested each. Per query it tracks the trace, not the network.
	CorridorSegments Counter
	// InterestMemoHits and InterestMemoMisses split the interests
	// requested (SegmentsFolded plus CorridorSegments) between the
	// epoch's interest memo and actual folds: misses count the folds.
	// InterestMemoResets counts the times the memo filled and was
	// dropped; InterestMemoEntries is the entries held by the memo of the
	// epoch that served the latest route or trajectory request.
	InterestMemoHits    Counter
	InterestMemoMisses  Counter
	InterestMemoResets  Counter
	InterestMemoEntries Counter
	// TracePoints and MatchedPoints count trace points examined and
	// those that snapped to a segment.
	TracePoints   Counter
	MatchedPoints Counter
	// Outcomes counts the routes, trajectory, describe and tour-planning
	// queries that did not answer.
	Outcomes
	// SearchNanos accumulates wall time inside route searches, and
	// MatchNanos inside whole trajectory-SOI evaluations — matching, the
	// corridor fold and the ranking, not matching alone.
	SearchNanos Counter
	MatchNanos  Counter
}

// Outcomes counts how the queries of one family that did not answer
// ended. Every family is admitted through the same gate
// (internal/engine), which folds each query's terminal error into the
// family's Outcomes once.
type Outcomes struct {
	// Shed counts queries rejected by admission control (ErrOverloaded):
	// the wait queue was at depth or the max queue wait elapsed.
	Shed Counter
	// Cancelled counts queries that ended with context.Canceled — the
	// 499-style "client went away" outcome.
	Cancelled Counter
	// DeadlineExceeded counts queries that ended with
	// context.DeadlineExceeded (per-query deadline or caller timeout).
	DeadlineExceeded Counter
	// PanicsRecovered counts evaluations that panicked and were isolated
	// into a per-query error instead of crashing the process.
	PanicsRecovered Counter
}

// Recorder is the process-wide sink for observability counters. One
// recorder is owned by the soi.Engine and shared by every layer under
// it; a nil *Recorder disables recording entirely.
type Recorder struct {
	Core      CoreStats
	Engine    EngineStats
	Diversify DiversifyStats
	Ingest    IngestStats
	Remote    RemoteStats
	Traj      TrajStats
}

// NewRecorder returns a zeroed recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// CoreSnapshot is the JSON form of CoreStats.
type CoreSnapshot struct {
	Evaluations       int64 `json:"evaluations"`
	SL1CellsPopped    int64 `json:"sl1_cells_popped"`
	SL2SegmentsPopped int64 `json:"sl2_segments_popped"`
	SL3SegmentsPopped int64 `json:"sl3_segments_popped"`
	FilterIterations  int64 `json:"filter_iterations"`
	CellVisits        int64 `json:"cell_visits"`
	SegmentsSeen      int64 `json:"segments_seen"`
	SegmentsFinal     int64 `json:"segments_final"`
	RefineDrained     int64 `json:"refine_drained"`
	BuildListsNanos   int64 `json:"build_lists_ns"`
	FilterNanos       int64 `json:"filter_ns"`
	RefineNanos       int64 `json:"refine_ns"`
	// MassCacheHits and MassCacheMisses are always 0 and never encoded:
	// there is no segment-mass cache. They stay only because
	// bench/layers.go still reads them (ROADMAP 1(c)).
	MassCacheHits   int64 `json:"-"`
	MassCacheMisses int64 `json:"-"`
}

// EngineSnapshot is the JSON form of EngineStats.
type EngineSnapshot struct {
	Schedule          string            `json:"schedule,omitempty"`
	Queries           int64             `json:"queries"`
	ResultCacheHits   int64             `json:"result_cache_hits"`
	ResultCacheMisses int64             `json:"result_cache_misses"`
	ResultBodyReuse   int64             `json:"result_body_reuse"`
	DedupJoins        int64             `json:"dedup_joins"`
	Evaluations       int64             `json:"evaluations"`
	BatchRequests     int64             `json:"batch_requests"`
	BatchQueries      int64             `json:"batch_queries"`
	BatchGroups       int64             `json:"batch_groups"`
	InFlight          int64             `json:"in_flight"`
	PeakInFlight      int64             `json:"peak_in_flight"`
	QueueDepth        int64             `json:"queue_depth"`
	PeakQueueDepth    int64             `json:"peak_queue_depth"`
	BusyNanos         int64             `json:"busy_ns"`
	Shed              int64             `json:"shed"`
	Cancelled         int64             `json:"cancelled"`
	DeadlineExceeded  int64             `json:"deadline_exceeded"`
	PanicsRecovered   int64             `json:"panics_recovered"`
	QueueWait         HistogramSnapshot `json:"queue_wait"`
	QueryLatency      HistogramSnapshot `json:"query_latency"`
}

// DiversifySnapshot is the JSON form of DiversifyStats.
type DiversifySnapshot struct {
	Summaries       int64 `json:"summaries"`
	Iterations      int64 `json:"iterations"`
	CandidatePhotos int64 `json:"candidate_photos"`
	PhotosEvaluated int64 `json:"photos_evaluated"`
	CellsExamined   int64 `json:"cells_examined"`
	CellsPruned     int64 `json:"cells_pruned"`
	SummaryNanos    int64 `json:"summary_ns"`

	ContextMemoHits      int64 `json:"context_memo_hits"`
	ContextMemoMisses    int64 `json:"context_memo_misses"`
	ContextMemoEvictions int64 `json:"context_memo_evictions"`
	ContextMemoPhotos    int64 `json:"context_memo_photos"`
}

// IngestSnapshot is the JSON form of IngestStats.
type IngestSnapshot struct {
	DeltasAppended     int64 `json:"deltas_appended"`
	DeltasPending      int64 `json:"deltas_pending"`
	Publishes          int64 `json:"publishes"`
	Compactions        int64 `json:"compactions"`
	EpochSeq           int64 `json:"epoch_seq"`
	EpochsLive         int64 `json:"epochs_live"`
	EpochsRetired      int64 `json:"epochs_retired"`
	PublishNanos       int64 `json:"publish_ns"`
	PublishExtendNanos int64 `json:"publish_extend_ns"`
	PublishSlabNanos   int64 `json:"publish_slab_ns"`
	PublishOpenNanos   int64 `json:"publish_open_ns"`
	CompactNanos       int64 `json:"compact_ns"`
}

// RemoteSnapshot is the JSON form of RemoteStats.
type RemoteSnapshot struct {
	Calls                int64 `json:"calls"`
	Attempts             int64 `json:"attempts"`
	Retries              int64 `json:"retries"`
	HedgesStarted        int64 `json:"hedges_started"`
	HedgesWon            int64 `json:"hedges_won"`
	HedgesWasted         int64 `json:"hedges_wasted"`
	BreakerOpens         int64 `json:"breaker_opens"`
	BreakerProbes        int64 `json:"breaker_probes"`
	BreakerShortCircuits int64 `json:"breaker_short_circuits"`
	Errors               int64 `json:"errors"`
	Degraded             int64 `json:"degraded"`
	ShardsMissing        int64 `json:"shards_missing"`
	ShardsEvaluated      int64 `json:"shards_evaluated"`
	ShardsPruned         int64 `json:"shards_pruned"`
}

// TrajSnapshot is the JSON form of TrajStats.
type TrajSnapshot struct {
	RouteQueries     int64 `json:"route_queries"`
	TrajQueries      int64 `json:"traj_queries"`
	Expansions       int64 `json:"expansions"`
	VerticesSettled  int64 `json:"vertices_settled"`
	SegmentsFolded   int64 `json:"segments_folded"`
	CorridorSegments int64 `json:"corridor_segments"`
	TracePoints      int64 `json:"trace_points"`
	MatchedPoints    int64 `json:"matched_points"`
	Shed             int64 `json:"shed"`
	Cancelled        int64 `json:"cancelled"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	PanicsRecovered  int64 `json:"panics_recovered"`
	SearchNanos      int64 `json:"search_ns"`
	MatchNanos       int64 `json:"match_ns"`

	InterestMemoHits    int64 `json:"interest_memo_hits"`
	InterestMemoMisses  int64 `json:"interest_memo_misses"`
	InterestMemoResets  int64 `json:"interest_memo_resets"`
	InterestMemoEntries int64 `json:"interest_memo_entries"`
}

// Snapshot is a point-in-time copy of every recorder value, safe to
// serialize while traffic continues.
type Snapshot struct {
	Core      CoreSnapshot      `json:"core"`
	Engine    EngineSnapshot    `json:"engine"`
	Diversify DiversifySnapshot `json:"diversify"`
	Ingest    IngestSnapshot    `json:"ingest"`
	Remote    RemoteSnapshot    `json:"remote"`
	Traj      TrajSnapshot      `json:"traj"`
}

// Snapshot copies the current counter and histogram values. Each counter
// is read atomically; the snapshot as a whole is not one instant, which
// is fine for monitoring. A nil recorder yields a zero snapshot.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	schedule, _ := r.Engine.Schedule.Load().(string)
	return Snapshot{
		Core: CoreSnapshot{
			Evaluations:       r.Core.Evaluations.Load(),
			SL1CellsPopped:    r.Core.SL1CellsPopped.Load(),
			SL2SegmentsPopped: r.Core.SL2SegmentsPopped.Load(),
			SL3SegmentsPopped: r.Core.SL3SegmentsPopped.Load(),
			FilterIterations:  r.Core.FilterIterations.Load(),
			CellVisits:        r.Core.CellVisits.Load(),
			SegmentsSeen:      r.Core.SegmentsSeen.Load(),
			SegmentsFinal:     r.Core.SegmentsFinal.Load(),
			RefineDrained:     r.Core.RefineDrained.Load(),
			BuildListsNanos:   r.Core.BuildListsNanos.Load(),
			FilterNanos:       r.Core.FilterNanos.Load(),
			RefineNanos:       r.Core.RefineNanos.Load(),
		},
		Engine: EngineSnapshot{
			Schedule:          schedule,
			Queries:           r.Engine.Queries.Load(),
			ResultCacheHits:   r.Engine.ResultCacheHits.Load(),
			ResultCacheMisses: r.Engine.ResultCacheMisses.Load(),
			ResultBodyReuse:   r.Engine.ResultBodyReuse.Load(),
			DedupJoins:        r.Engine.DedupJoins.Load(),
			Evaluations:       r.Engine.Evaluations.Load(),
			BatchRequests:     r.Engine.BatchRequests.Load(),
			BatchQueries:      r.Engine.BatchQueries.Load(),
			BatchGroups:       r.Engine.BatchGroups.Load(),
			InFlight:          r.Engine.InFlight.Load(),
			PeakInFlight:      r.Engine.PeakInFlight.Load(),
			QueueDepth:        r.Engine.QueueDepth.Load(),
			PeakQueueDepth:    r.Engine.PeakQueueDepth.Load(),
			BusyNanos:         r.Engine.BusyNanos.Load(),
			Shed:              r.Engine.Shed.Load(),
			Cancelled:         r.Engine.Cancelled.Load(),
			DeadlineExceeded:  r.Engine.DeadlineExceeded.Load(),
			PanicsRecovered:   r.Engine.PanicsRecovered.Load(),
			QueueWait:         r.Engine.QueueWait.Snapshot(),
			QueryLatency:      r.Engine.QueryLatency.Snapshot(),
		},
		Diversify: DiversifySnapshot{
			Summaries:       r.Diversify.Summaries.Load(),
			Iterations:      r.Diversify.Iterations.Load(),
			CandidatePhotos: r.Diversify.CandidatePhotos.Load(),
			PhotosEvaluated: r.Diversify.PhotosEvaluated.Load(),
			CellsExamined:   r.Diversify.CellsExamined.Load(),
			CellsPruned:     r.Diversify.CellsPruned.Load(),
			SummaryNanos:    r.Diversify.SummaryNanos.Load(),

			ContextMemoHits:      r.Diversify.ContextMemoHits.Load(),
			ContextMemoMisses:    r.Diversify.ContextMemoMisses.Load(),
			ContextMemoEvictions: r.Diversify.ContextMemoEvictions.Load(),
			ContextMemoPhotos:    r.Diversify.ContextMemoPhotos.Load(),
		},
		Remote: RemoteSnapshot{
			Calls:                r.Remote.Calls.Load(),
			Attempts:             r.Remote.Attempts.Load(),
			Retries:              r.Remote.Retries.Load(),
			HedgesStarted:        r.Remote.HedgesStarted.Load(),
			HedgesWon:            r.Remote.HedgesWon.Load(),
			HedgesWasted:         r.Remote.HedgesWasted.Load(),
			BreakerOpens:         r.Remote.BreakerOpens.Load(),
			BreakerProbes:        r.Remote.BreakerProbes.Load(),
			BreakerShortCircuits: r.Remote.BreakerShortCircuits.Load(),
			Errors:               r.Remote.Errors.Load(),
			Degraded:             r.Remote.Degraded.Load(),
			ShardsMissing:        r.Remote.ShardsMissing.Load(),
			ShardsEvaluated:      r.Remote.ShardsEvaluated.Load(),
			ShardsPruned:         r.Remote.ShardsPruned.Load(),
		},
		Ingest: IngestSnapshot{
			DeltasAppended:     r.Ingest.DeltasAppended.Load(),
			DeltasPending:      r.Ingest.DeltasPending.Load(),
			Publishes:          r.Ingest.Publishes.Load(),
			Compactions:        r.Ingest.Compactions.Load(),
			EpochSeq:           r.Ingest.EpochSeq.Load(),
			EpochsLive:         r.Ingest.EpochsLive.Load(),
			EpochsRetired:      r.Ingest.EpochsRetired.Load(),
			PublishNanos:       r.Ingest.PublishNanos.Load(),
			PublishExtendNanos: r.Ingest.PublishExtendNanos.Load(),
			PublishSlabNanos:   r.Ingest.PublishSlabNanos.Load(),
			PublishOpenNanos:   r.Ingest.PublishOpenNanos.Load(),
			CompactNanos:       r.Ingest.CompactNanos.Load(),
		},
		Traj: TrajSnapshot{
			RouteQueries:     r.Traj.RouteQueries.Load(),
			TrajQueries:      r.Traj.TrajQueries.Load(),
			Expansions:       r.Traj.Expansions.Load(),
			VerticesSettled:  r.Traj.VerticesSettled.Load(),
			SegmentsFolded:   r.Traj.SegmentsFolded.Load(),
			CorridorSegments: r.Traj.CorridorSegments.Load(),
			TracePoints:      r.Traj.TracePoints.Load(),
			MatchedPoints:    r.Traj.MatchedPoints.Load(),
			Shed:             r.Traj.Shed.Load(),
			Cancelled:        r.Traj.Cancelled.Load(),
			DeadlineExceeded: r.Traj.DeadlineExceeded.Load(),
			PanicsRecovered:  r.Traj.PanicsRecovered.Load(),
			SearchNanos:      r.Traj.SearchNanos.Load(),
			MatchNanos:       r.Traj.MatchNanos.Load(),

			InterestMemoHits:    r.Traj.InterestMemoHits.Load(),
			InterestMemoMisses:  r.Traj.InterestMemoMisses.Load(),
			InterestMemoResets:  r.Traj.InterestMemoResets.Load(),
			InterestMemoEntries: r.Traj.InterestMemoEntries.Load(),
		},
	}
}
