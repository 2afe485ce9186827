// Command soishard serves one shard of a partitioned world over HTTP —
// the worker side of cross-process k-SOI scatter-gather. A coordinator
// (soiserve -shard-addrs) fans queries out to a fleet of these, one or
// more replicas per tile.
//
//	soibuild -data ./data/berlin -shards 2x2 -o world.manifest
//	soishard -manifest world.manifest -shard 0 -addr :9100
//	soishard -manifest world.manifest -shard 1 -addr :9101
//	...
//	soiserve -shard-manifest world.manifest -shard-addrs "localhost:9100;localhost:9101;..."
//
// Endpoints:
//
//	GET  /healthz       liveness: the process is up
//	GET  /readyz        readiness: shard index loaded and not draining
//	GET  /shard/meta    shard id, tile, halo, sizes (coordinator sanity check)
//	POST /shard/query   one shard-local k-SOI evaluation, with its bound
//	GET  /metrics       Prometheus text exposition (soi_* namespace + runtime gauges)
//	GET  /debug/pprof/  net/http/pprof profiles
//
// /healthz, /readyz, /metrics and /debug/pprof/ are the skeleton every
// server of this repo shares (httperr.Base), soiserve in each of its
// modes included.
//
// Every evaluation runs through the same admission/timeout stack as the
// single-process server: bounded queueing with load shedding
// (-queue-depth, -max-queue-wait → 503 + Retry-After), per-query
// deadlines (-query-timeout → 504) and panic isolation. On
// SIGINT/SIGTERM the process flips /readyz to 503 (so balancers and
// half-open circuit breakers steer away), then drains in-flight
// requests for up to -shutdown-grace.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	log.SetFlags(0)
	log.SetPrefix("soishard: ")
	f, fs := newFlagSet()
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveShard(ctx, f)
}

// flagSet groups the parsed command line.
type flagSet struct {
	manifest      string
	shardID       int
	addr          string
	workers       int
	cache         int
	queueDepth    int
	maxQueueWait  time.Duration
	queryTimeout  time.Duration
	shutdownGrace time.Duration
}

func newFlagSet() (*flagSet, *flag.FlagSet) {
	f := &flagSet{}
	fs := flag.NewFlagSet("soishard", flag.ContinueOnError)
	fs.StringVar(&f.manifest, "manifest", "", "partitioned-world manifest (soibuild -shards)")
	fs.IntVar(&f.shardID, "shard", -1, "shard id within the manifest to serve")
	fs.StringVar(&f.addr, "addr", ":9100", "listen address")
	fs.IntVar(&f.workers, "workers", 0, "max concurrent evaluations (0 = GOMAXPROCS)")
	fs.IntVar(&f.cache, "cache", 0, "query result cache capacity (0 = default, negative disables)")
	fs.IntVar(&f.queueDepth, "queue-depth", 256, "max queries waiting for a worker slot before shedding with 503 (0 = unbounded)")
	fs.DurationVar(&f.maxQueueWait, "max-queue-wait", 2*time.Second, "max time a query may wait for a worker slot before shedding (0 = unbounded)")
	fs.DurationVar(&f.queryTimeout, "query-timeout", 30*time.Second, "per-query evaluation deadline (0 = none)")
	fs.DurationVar(&f.shutdownGrace, "shutdown-grace", 10*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
	return f, fs
}

// serveShard loads the shard, serves it until ctx is cancelled, then
// drains gracefully. Returns the process exit code.
func serveShard(ctx context.Context, f *flagSet) int {
	if f.manifest == "" {
		log.Print("-manifest required")
		return 2
	}
	if f.shardID < 0 {
		log.Print("-shard required")
		return 2
	}
	openStart := time.Now()
	sh, m, closer, err := shard.LoadShard(f.manifest, f.shardID)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer closer.Close()
	opened := time.Since(openStart)

	rec := stats.NewRecorder()
	srv := remote.NewServer(remote.ShardData{
		ShardID:  sh.ID,
		Shards:   len(m.Shards),
		TileX:    sh.TileX,
		TileY:    sh.TileY,
		Halo:     m.Halo,
		CellSize: m.CellSize,
		Index:    sh.Index,
		Streets:  sh.Streets,
		Segments: sh.Segments,
	}, remote.ServerConfig{Engine: engine.Config{
		Workers:      f.workers,
		CacheSize:    f.cache,
		QueueDepth:   f.queueDepth,
		MaxQueueWait: f.maxQueueWait,
		QueryTimeout: f.queryTimeout,
		Recorder:     rec,
	}})

	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	// The address stays last: supervisors read it after the final " on ".
	log.Printf("serving shard %d/%d (tile %d,%d: %d streets, %d segments; opened in %d ms) on %s",
		sh.ID, len(m.Shards), sh.TileX, sh.TileY, len(sh.Streets), len(sh.Segments), opened.Milliseconds(), ln.Addr())
	if err := remote.Serve(ctx, ln, srv, f.shutdownGrace); err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("shutdown complete")
	return 0
}
