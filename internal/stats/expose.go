package stats

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// This file renders a Snapshot as Prometheus text exposition for /metrics
// scrapers. The rendering is deterministic: keys are emitted in sorted
// order and every float uses a fixed formatting, so two snapshots with
// equal counters produce byte-identical output.

// counterRows returns every counter of the snapshot as ⟨name, value,
// isGauge⟩ rows, name in prometheus snake_case without the soi_ prefix.
func (s Snapshot) counterRows() []counterRow {
	return []counterRow{
		{"core_evaluations", s.Core.Evaluations, false},
		{"core_sl1_cells_popped", s.Core.SL1CellsPopped, false},
		{"core_sl2_segments_popped", s.Core.SL2SegmentsPopped, false},
		{"core_sl3_segments_popped", s.Core.SL3SegmentsPopped, false},
		{"core_filter_iterations", s.Core.FilterIterations, false},
		{"core_cell_visits", s.Core.CellVisits, false},
		{"core_segments_seen", s.Core.SegmentsSeen, false},
		{"core_segments_final", s.Core.SegmentsFinal, false},
		{"core_refine_drained", s.Core.RefineDrained, false},
		{"core_build_lists_ns", s.Core.BuildListsNanos, false},
		{"core_filter_ns", s.Core.FilterNanos, false},
		{"core_refine_ns", s.Core.RefineNanos, false},
		{"engine_queries", s.Engine.Queries, false},
		{"engine_result_cache_hits", s.Engine.ResultCacheHits, false},
		{"engine_result_cache_misses", s.Engine.ResultCacheMisses, false},
		{"engine_result_body_reuse", s.Engine.ResultBodyReuse, false},
		{"engine_dedup_joins", s.Engine.DedupJoins, false},
		{"engine_evaluations", s.Engine.Evaluations, false},
		{"engine_batch_requests", s.Engine.BatchRequests, false},
		{"engine_batch_queries", s.Engine.BatchQueries, false},
		{"engine_batch_groups", s.Engine.BatchGroups, false},
		{"engine_in_flight", s.Engine.InFlight, true},
		{"engine_peak_in_flight", s.Engine.PeakInFlight, true},
		{"engine_queue_depth", s.Engine.QueueDepth, true},
		{"engine_peak_queue_depth", s.Engine.PeakQueueDepth, true},
		{"engine_busy_ns", s.Engine.BusyNanos, false},
		// Robustness outcomes: kept un-prefixed so they read as
		// service-level counters (soi_shed_total, soi_cancelled_total,
		// soi_deadline_exceeded_total, soi_panics_recovered_total).
		{"shed", s.Engine.Shed, false},
		{"cancelled", s.Engine.Cancelled, false},
		{"deadline_exceeded", s.Engine.DeadlineExceeded, false},
		{"panics_recovered", s.Engine.PanicsRecovered, false},
		{"ingest_deltas_appended", s.Ingest.DeltasAppended, false},
		{"ingest_deltas_pending", s.Ingest.DeltasPending, true},
		{"ingest_publishes", s.Ingest.Publishes, false},
		{"ingest_compactions", s.Ingest.Compactions, false},
		{"ingest_epoch_seq", s.Ingest.EpochSeq, true},
		{"ingest_epochs_live", s.Ingest.EpochsLive, true},
		{"ingest_epochs_retired", s.Ingest.EpochsRetired, false},
		{"ingest_publish_ns", s.Ingest.PublishNanos, false},
		{"ingest_publish_extend_ns", s.Ingest.PublishExtendNanos, false},
		{"ingest_publish_slab_ns", s.Ingest.PublishSlabNanos, false},
		{"ingest_publish_open_ns", s.Ingest.PublishOpenNanos, false},
		{"ingest_compact_ns", s.Ingest.CompactNanos, false},
		{"remote_calls", s.Remote.Calls, false},
		{"remote_attempts", s.Remote.Attempts, false},
		{"remote_retries", s.Remote.Retries, false},
		{"remote_hedges_started", s.Remote.HedgesStarted, false},
		{"remote_hedges_won", s.Remote.HedgesWon, false},
		{"remote_hedges_wasted", s.Remote.HedgesWasted, false},
		{"remote_breaker_opens", s.Remote.BreakerOpens, false},
		{"remote_breaker_probes", s.Remote.BreakerProbes, false},
		{"remote_breaker_short_circuits", s.Remote.BreakerShortCircuits, false},
		{"remote_errors", s.Remote.Errors, false},
		{"remote_degraded", s.Remote.Degraded, false},
		{"remote_shards_missing", s.Remote.ShardsMissing, false},
		{"remote_shards_evaluated", s.Remote.ShardsEvaluated, false},
		{"remote_shards_pruned", s.Remote.ShardsPruned, false},
		{"traj_route_queries", s.Traj.RouteQueries, false},
		{"traj_traj_queries", s.Traj.TrajQueries, false},
		{"traj_expansions", s.Traj.Expansions, false},
		{"traj_vertices_settled", s.Traj.VerticesSettled, false},
		{"traj_segments_folded", s.Traj.SegmentsFolded, false},
		{"traj_corridor_segments", s.Traj.CorridorSegments, false},
		{"traj_interest_memo_hits", s.Traj.InterestMemoHits, false},
		{"traj_interest_memo_misses", s.Traj.InterestMemoMisses, false},
		{"traj_interest_memo_resets", s.Traj.InterestMemoResets, false},
		{"traj_interest_memo_entries", s.Traj.InterestMemoEntries, true},
		{"traj_trace_points", s.Traj.TracePoints, false},
		{"traj_matched_points", s.Traj.MatchedPoints, false},
		{"traj_shed", s.Traj.Shed, false},
		{"traj_cancelled", s.Traj.Cancelled, false},
		{"traj_deadline_exceeded", s.Traj.DeadlineExceeded, false},
		{"traj_panics_recovered", s.Traj.PanicsRecovered, false},
		{"traj_search_ns", s.Traj.SearchNanos, false},
		{"traj_match_ns", s.Traj.MatchNanos, false},
		{"diversify_summaries", s.Diversify.Summaries, false},
		{"diversify_iterations", s.Diversify.Iterations, false},
		{"diversify_candidate_photos", s.Diversify.CandidatePhotos, false},
		{"diversify_photos_evaluated", s.Diversify.PhotosEvaluated, false},
		{"diversify_cells_examined", s.Diversify.CellsExamined, false},
		{"diversify_cells_pruned", s.Diversify.CellsPruned, false},
		{"diversify_summary_ns", s.Diversify.SummaryNanos, false},
		{"diversify_context_memo_hits", s.Diversify.ContextMemoHits, false},
		{"diversify_context_memo_misses", s.Diversify.ContextMemoMisses, false},
		{"diversify_context_memo_evictions", s.Diversify.ContextMemoEvictions, false},
		{"diversify_context_memo_photos", s.Diversify.ContextMemoPhotos, true},
	}
}

type counterRow struct {
	name  string
	value int64
	gauge bool
}

type histRow struct {
	name string
	h    HistogramSnapshot
}

func (s Snapshot) histRows() []histRow {
	return []histRow{
		{"engine_queue_wait_seconds", s.Engine.QueueWait},
		{"engine_query_latency_seconds", s.Engine.QueryLatency},
	}
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format under the soi_ namespace. Counters get a _total suffix, gauges
// none; histograms render cumulative le buckets plus _sum and _count. A
// snapshot fed by an executor ends with one info gauge naming its
// access schedule.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	rows := s.counterRows()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		name, typ := "soi_"+r.name+"_total", "counter"
		if r.gauge {
			name, typ = "soi_"+r.name, "gauge"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, typ, name, r.value); err != nil {
			return err
		}
	}
	hists := s.histRows()
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	bounds := BucketBounds()
	for _, hr := range hists {
		name := "soi_" + hr.name
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum int64
		for i, b := range bounds {
			cum += hr.h.Buckets[i]
			le := strconv.FormatFloat(float64(b)/1e9, 'g', -1, 64)
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		cum += hr.h.Buckets[NumBuckets-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
			name, strconv.FormatFloat(float64(hr.h.SumNano)/1e9, 'g', -1, 64), name, hr.h.Count); err != nil {
			return err
		}
	}
	if s.Engine.Schedule == "" {
		return nil
	}
	_, err := fmt.Fprintf(w, "# TYPE soi_engine_schedule_info gauge\nsoi_engine_schedule_info{schedule=%q} 1\n", s.Engine.Schedule)
	return err
}
