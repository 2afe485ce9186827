package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/shard"
)

// runShardBench measures the identical query workload on a single slab
// index and on the sharded scatter-gather coordinator, per city, and
// writes the comparison as a schema-validated BENCH artifact. Before any
// timing it verifies the two paths agree bit-for-bit on every query —
// ranked street ids, Float64bits interests, best segments — so the
// artifact can only ever compare equivalent answers. The same
// verification pass collects the coordinator's deterministic
// early-termination counters (shards pruned without evaluation), which
// land in the artifact next to the throughput numbers.
//
// With tenants > 1 the workload models a multi-tenant arrival order:
// each tenant draws its own seeded workload (seed, seed+1, …) and the
// streams are interleaved round-robin, so the measured loop hops between
// query mixes the way a shared server does.
func runShardBench(cities string, scale float64, queries int, seed int64, shards, tenants int, outPath string) error {
	out := os.Stdout
	start := time.Now()
	fmt.Fprintf(out, "Loading cities (scale %g)...\n", scale)
	citiesList, err := loadSelected(cities, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Loaded %d cities in %v.\n", len(citiesList), time.Since(start).Round(time.Millisecond))

	workload := shardWorkload(queries, seed, tenants)
	halo := 0.0
	for _, q := range workload {
		halo = math.Max(halo, q.Epsilon)
	}
	fmt.Fprintf(out, "Workload: %d queries (%d tenants × %d), seed %d, %d shards, halo %g.\n\n",
		len(workload), tenants, queries, seed, shards, halo)

	report := benchfmt.Report{
		SchemaVersion: benchfmt.SchemaVersion,
		Bench:         "sharded-scatter-gather",
		GoVersion:     runtime.Version(),
		Scale:         scale,
		Seed:          seed,
		Queries:       len(workload),
		Shards:        shards,
		Tenants:       tenants,
	}
	ctx := context.Background()
	for _, c := range citiesList {
		net, pois := c.Dataset.Network, c.Dataset.POIs
		single, err := core.NewSlabIndex(net, pois, core.IndexConfig{CellSize: experiments.Epsilon})
		if err != nil {
			return fmt.Errorf("building single index for %s: %w", c.Name(), err)
		}
		world, err := shard.Partition(net, pois, shard.Config{
			Tiles:    shards,
			Halo:     halo,
			CellSize: experiments.Epsilon,
		})
		if err != nil {
			return fmt.Errorf("partitioning %s into %d shards: %w", c.Name(), shards, err)
		}
		coord := shard.NewCoordinator(world)
		eps := map[float64]bool{}
		for _, q := range workload {
			if !eps[q.Epsilon] {
				single.Warm(q.Epsilon)
				for _, s := range world.Shards {
					s.Index.Warm(q.Epsilon)
				}
				eps[q.Epsilon] = true
			}
		}

		// Equivalence gate + deterministic counters in one pass.
		var total shard.GatherStats
		for qi, q := range workload {
			want, _, err := single.SOI(q)
			if err != nil {
				return fmt.Errorf("single index on %s query %d: %w", c.Name(), qi, err)
			}
			got, gs, err := coord.TopK(ctx, q)
			if err != nil {
				return fmt.Errorf("coordinator on %s query %d: %w", c.Name(), qi, err)
			}
			if d := diffShardResults(got, want); d != "" {
				return fmt.Errorf("sharded answer diverged from single index on %s query %d: %s", c.Name(), qi, d)
			}
			total.ShardsTotal += gs.ShardsTotal
			total.ShardsEvaluated += gs.ShardsEvaluated
			total.ShardsPruned += gs.ShardsPruned
		}

		results := make([]core.StreetResult, 0, 64)
		singleMetrics, err := measure(len(workload), func() error {
			for _, q := range workload {
				var err error
				if results, _, err = single.SOIInto(ctx, q, nil, results[:0]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("single layout on %s: %w", c.Name(), err)
		}
		shardedMetrics, err := measure(len(workload), func() error {
			for _, q := range workload {
				if _, _, err := coord.TopK(ctx, q); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("sharded layout on %s: %w", c.Name(), err)
		}

		st := net.Stats()
		w := benchfmt.World{
			Name:            c.Name(),
			Streets:         st.NumStreets,
			Segments:        st.NumSegments,
			POIs:            pois.Len(),
			Single:          &singleMetrics,
			Sharded:         &shardedMetrics,
			ShardsTotal:     total.ShardsTotal,
			ShardsEvaluated: total.ShardsEvaluated,
			ShardsPruned:    total.ShardsPruned,
		}
		if shardedMetrics.NsPerQuery > 0 {
			w.Speedup = singleMetrics.NsPerQuery / shardedMetrics.NsPerQuery
		}
		if shardedMetrics.AllocsPerQuery > 0 {
			w.AllocReduction = singleMetrics.AllocsPerQuery / shardedMetrics.AllocsPerQuery
		} else {
			w.AllocReduction = singleMetrics.AllocsPerQuery
		}
		report.Worlds = append(report.Worlds, w)
		fmt.Fprintf(out, "%-12s single %9.0f ns/q | sharded %9.0f ns/q (%d shards: %d evaluated, %d pruned) | %5.2fx\n",
			c.Name(), singleMetrics.NsPerQuery, shardedMetrics.NsPerQuery,
			total.ShardsTotal, total.ShardsEvaluated, total.ShardsPruned, w.Speedup)
	}

	if err := report.WriteFile(outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nWrote %s (schema v%d). Done in %v.\n", outPath, benchfmt.SchemaVersion, time.Since(start).Round(time.Millisecond))
	return nil
}

// shardWorkload interleaves one seeded workload per tenant round-robin.
// With tenants == 1 it is exactly ParallelWorkloadSeeded(queries, seed),
// so single-tenant sharded runs stay comparable with the other benches.
func shardWorkload(queries int, seed int64, tenants int) []core.Query {
	perTenant := make([][]core.Query, tenants)
	for t := range perTenant {
		perTenant[t] = experiments.ParallelWorkloadSeeded(queries, seed+int64(t))
	}
	workload := make([]core.Query, 0, queries*tenants)
	for i := 0; i < queries; i++ {
		for t := 0; t < tenants; t++ {
			workload = append(workload, perTenant[t][i])
		}
	}
	return workload
}

// diffShardResults reports the first bit-level divergence between two
// rankings, or "" when they are identical.
func diffShardResults(got, want []core.StreetResult) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Street != w.Street || g.BestSegment != w.BestSegment ||
			math.Float64bits(g.Interest) != math.Float64bits(w.Interest) ||
			math.Float64bits(g.Mass) != math.Float64bits(w.Mass) {
			return fmt.Sprintf("rank %d: street %d interest %x mass %x, want street %d interest %x mass %x",
				i, g.Street, math.Float64bits(g.Interest), math.Float64bits(g.Mass),
				w.Street, math.Float64bits(w.Interest), math.Float64bits(w.Mass))
		}
	}
	return ""
}

// measure times one full pass of the workload loop after an untimed
// warm-up pass, bracketing it with mem-stats reads so the artifact
// carries exact allocation counts rather than testing-package estimates.
func measure(queries int, loop func() error) (benchfmt.Metrics, error) {
	if err := loop(); err != nil {
		return benchfmt.Metrics{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := loop(); err != nil {
		return benchfmt.Metrics{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(queries)
	m := benchfmt.Metrics{
		NsPerQuery:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerQuery: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerQuery:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
	if elapsed > 0 {
		m.QPS = n / elapsed.Seconds()
	}
	return m, nil
}
