// Command soiserve serves k-SOI, description and tour queries over HTTP
// for online exploration. It loads a CSV dataset (see soigen) or
// generates a synthetic city on startup.
//
//	soiserve -city berlin -scale 0.25 -addr :8080
//	soiserve -data ./data/berlin -addr :8080
//	soiserve -index berlin.soi -addr :8080
//	soiserve -tenants ./snapshots -addr :8080    # multi-tenant: /api/{city}/...
//
// With -tenants every *.soi snapshot in the directory becomes a city
// routed under /api/{city}/... (same endpoint set per city, plus
// GET /api/tenants listing them). Engines are mmap-loaded lazily, kept
// in an LRU of -max-tenants resident engines, and each tenant gets a
// -tenant-inflight admission quota layered on the shared load shedder.
//
// Endpoints:
//
//	GET /api/stats                 dataset summary + engine/runtime counters
//	GET /api/streets?keywords=shop&k=10&eps=0.0005&trace=1
//	GET /api/describe?street=Friedrichstraße&k=4
//	GET /api/tour?keywords=shop&k=10&budget=0.05
//
// and in every mode (-city/-data/-index, -live, -tenants, -shard-addrs):
//
//	GET /healthz                   liveness: the process is up
//	GET /readyz                    readiness: 503 "draining" from SIGINT/SIGTERM on
//	GET /metrics                   Prometheus text exposition (runtime gauges included)
//	GET /debug/pprof/              net/http/pprof profiles
//
// Under -tenants the router's /metrics carries the runtime gauges and each
// city's counters are under /api/{city}/metrics.
//
// The server is production-hardened: per-query deadlines
// (-query-timeout), bounded admission with load shedding (-queue-depth,
// -max-queue-wait → 503 + Retry-After), a capped batch request body
// (-max-batch-bytes → 413), and SIGINT/SIGTERM graceful shutdown that
// drains in-flight requests for up to -shutdown-grace before exiting 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	soi "repro"
	"repro/internal/dataio"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("soiserve: ")
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		city          = flag.String("city", "", "generate a synthetic city: london, berlin, vienna, small")
		scale         = flag.Float64("scale", 0.25, "volume scale for -city")
		dataDir       = flag.String("data", "", "load a CSV dataset directory instead of generating")
		indexPath     = flag.String("index", "", "memory-map a prebuilt index snapshot (.soi, see soibuild) instead of building one")
		workers       = flag.Int("workers", 0, "max concurrent query evaluations of every kind: k-SOI, describe, tour, routes, trajectories (0 = GOMAXPROCS)")
		cache         = flag.Int("cache", 0, "query result cache capacity (0 = default, negative disables)")
		queueDepth    = flag.Int("queue-depth", 256, "max queries waiting for a worker slot before shedding with 503 (0 = unbounded)")
		maxQueueWait  = flag.Duration("max-queue-wait", 2*time.Second, "max time a query may wait for a worker slot before shedding (0 = unbounded)")
		queryTimeout  = flag.Duration("query-timeout", 30*time.Second, "per-query evaluation deadline (0 = none)")
		maxBatchBytes = flag.Int64("max-batch-bytes", server.DefaultMaxBatchBytes, "max /api/streets/batch request body size (negative = unlimited)")
		shutdownGrace = flag.Duration("shutdown-grace", 10*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")

		live         = flag.Bool("live", false, "accept POI writes on POST /api/pois (epoch-based ingest; not with -index or -tenants)")
		batchSize    = flag.Int("publish-batch", 0, "with -live, auto-publish a new epoch once this many POIs are pending (0 = explicit publish only)")
		compactAfter = flag.Int("compact-after", 0, "with -live, auto-compact the delta log after this many publishes (0 = never)")
		snapshotPath = flag.String("snapshot-path", "", "with -live, persist the compacted base as a .soi snapshot here on every compaction")

		tenants        = flag.String("tenants", "", "serve every *.soi snapshot in this directory multi-tenant under /api/{city}/...")
		maxTenants     = flag.Int("max-tenants", server.DefaultMaxOpenTenants, "max snapshot engines resident at once with -tenants (LRU eviction)")
		tenantInflight = flag.Int("tenant-inflight", server.DefaultTenantInflight, "per-tenant admission quota with -tenants (503 over quota)")

		shardAddrs    = flag.String("shard-addrs", "", "serve by remote scatter-gather over soishard processes: per-shard replica address lists, shards separated by ';', replicas by ',' (e.g. \"host:9100,host:9200;host:9101\")")
		shardManifest = flag.String("shard-manifest", "", "with -shard-addrs, the partition manifest (pins the ε ceiling and shard count without network round trips)")
	)
	flag.Parse()

	cfg := soi.Config{
		Workers:      *workers,
		CacheSize:    *cache,
		QueueDepth:   *queueDepth,
		MaxQueueWait: *maxQueueWait,
		QueryTimeout: *queryTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *shardAddrs != "" {
		if *city != "" || *dataDir != "" || *indexPath != "" || *tenants != "" || *live {
			log.Fatal("-shard-addrs is mutually exclusive with -city, -data, -index, -tenants and -live")
		}
		handler, closeClient, err := buildRemoteHandler(ctx, *shardAddrs, *shardManifest)
		if err != nil {
			log.Fatal(err)
		}
		if err := serve(ctx, *addr, handler, *shutdownGrace); err != nil {
			log.Fatal(err)
		}
		closeClient()
		log.Printf("shutdown complete")
		return
	}

	if *tenants != "" {
		if *city != "" || *dataDir != "" || *indexPath != "" {
			log.Fatal("-tenants is mutually exclusive with -city, -data and -index")
		}
		if *live {
			log.Fatal("-live is not supported with -tenants")
		}
		ts, err := server.NewTenantServer(server.TenantConfig{
			Dir:         *tenants,
			MaxOpen:     *maxTenants,
			MaxInflight: *tenantInflight,
			Engine:      cfg,
			HTTP:        server.Config{MaxBatchBytes: *maxBatchBytes},
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving tenants %v on %s (max %d resident, %d in flight per tenant)",
			ts.Tenants(), *addr, *maxTenants, *tenantInflight)
		if err := serve(ctx, *addr, ts, *shutdownGrace); err != nil {
			log.Fatal(err)
		}
		if err := ts.Close(); err != nil {
			log.Printf("closing tenants: %v", err)
		}
		log.Printf("shutdown complete")
		return
	}

	var eng *soi.Engine
	var err error
	openStart := time.Now()
	if *live {
		// Live mode builds through the ingest path so POST /api/pois can
		// append and publish; a mmap snapshot has no mutable corpus to
		// seed, so -index stays read-only.
		if *indexPath != "" {
			log.Fatal("-live is not supported with -index (snapshots serve read-only)")
		}
		eng, err = buildLiveEngine(*city, *scale, *dataDir, soi.LiveConfig{
			Config:       cfg,
			BatchSize:    *batchSize,
			CompactAfter: *compactAfter,
			SnapshotPath: *snapshotPath,
		})
	} else {
		eng, err = buildEngine(*city, *scale, *dataDir, *indexPath, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	opened := time.Since(openStart)
	warmStart := time.Now()
	eng.Warm(soi.DefaultCellSize)
	warmed := time.Since(warmStart)
	mode := "read-only"
	if *live {
		mode = fmt.Sprintf("live (epoch %d)", eng.Epoch())
	}
	log.Printf("serving %d streets, %d POIs, %d photos on %s, %s (opened in %d ms, warmed in %d ms)",
		eng.NumStreets(), eng.NumPOIs(), eng.NumPhotos(), *addr, mode, opened.Milliseconds(), warmed.Milliseconds())

	if err := serve(ctx, *addr, newHandler(eng, *maxBatchBytes), *shutdownGrace); err != nil {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Printf("closing engine: %v", err)
	}
	log.Printf("shutdown complete")
}

// serve listens on addr and serves handler until ctx is cancelled
// (SIGINT/SIGTERM), then drains in-flight requests for up to grace
// (remote.Serve, the shutdown sequence soishard shares).
func serve(ctx context.Context, addr string, handler http.Handler, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return remote.Serve(ctx, ln, handler, grace)
}

func buildEngine(city string, scale float64, dataDir, indexPath string, cfg soi.Config) (*soi.Engine, error) {
	if indexPath != "" {
		// A snapshot is served memory-mapped, from the slab alone: start-up
		// flattens the network and sorts SL3, nothing else is built, and
		// answers are bit-identical to a fresh build of the same data.
		return soi.NewEngineFromSnapshot(indexPath, cfg)
	}
	if city == "" && dataDir == "" {
		return nil, fmt.Errorf("provide -city, -data or -index")
	}
	net, pois, photos, err := dataio.Load(city, scale, 0, dataDir)
	if err != nil {
		return nil, err
	}
	return soi.NewEngineFromCorpora(net, pois, photos, cfg)
}

// buildLiveEngine is buildEngine for -live: same dataset sources minus
// snapshots, built through the epoch-based ingest path.
func buildLiveEngine(city string, scale float64, dataDir string, cfg soi.LiveConfig) (*soi.Engine, error) {
	net, pois, photos, err := dataio.Load(city, scale, 0, dataDir)
	if err != nil {
		return nil, err
	}
	return soi.NewLiveEngineFromCorpora(net, pois, photos, cfg)
}

// newHandler wires the HTTP routes (internal/server).
func newHandler(eng *soi.Engine, maxBatchBytes int64) http.Handler {
	return server.NewWithConfig(eng, server.Config{MaxBatchBytes: maxBatchBytes})
}

// buildRemoteHandler wires the remote scatter-gather serving mode: a
// fault-tolerant shard client, a remote coordinator, and the HTTP
// handler set. With a manifest the shard count and ε ceiling come from
// disk; otherwise they are fetched from shard 0's /shard/meta. Either
// way every shard's metadata is cross-checked against its address so a
// swapped address list fails at startup, not at query time. The client
// runs internal/remote's one retry, hedge and breaker policy.
func buildRemoteHandler(ctx context.Context, shardAddrs, manifest string) (http.Handler, func(), error) {
	addrs, err := remote.ParseAddrs(shardAddrs)
	if err != nil {
		return nil, nil, err
	}
	var halo float64
	if manifest != "" {
		m, err := shard.LoadManifest(manifest)
		if err != nil {
			return nil, nil, err
		}
		if len(m.Shards) != len(addrs) {
			return nil, nil, fmt.Errorf("manifest has %d shards, -shard-addrs lists %d", len(m.Shards), len(addrs))
		}
		halo = m.Halo
	}
	rec := stats.NewRecorder()
	client, err := remote.NewClient(remote.Config{Addrs: addrs, Recorder: rec})
	if err != nil {
		return nil, nil, err
	}
	for i := range addrs {
		m, err := client.Meta(ctx, i)
		if err != nil {
			// A shard being down at startup is an availability fault, not a
			// config error: serve anyway and let the breaker/degradation
			// machinery handle it.
			log.Printf("shard %d meta unavailable at startup: %v", i, err)
			continue
		}
		if m.Shard != i {
			return nil, nil, fmt.Errorf("address list position %d serves shard %d (swapped -shard-addrs?)", i, m.Shard)
		}
		if m.Shards != len(addrs) {
			return nil, nil, fmt.Errorf("shard %d belongs to a %d-shard world, -shard-addrs lists %d", i, m.Shards, len(addrs))
		}
		if halo == 0 {
			halo = m.Halo
		}
	}
	coord := shard.NewRemoteCoordinator(client, halo)
	log.Printf("serving remote scatter-gather over %d shards (halo %v)", len(addrs), halo)
	handler := server.NewRemoteServer(server.RemoteConfig{
		Coordinator: coord,
		Recorder:    rec,
		Breakers:    client.BreakerStates,
	})
	return handler, client.Close, nil
}
