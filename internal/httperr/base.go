package httperr

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"

	"repro/internal/stats"
)

// Base is the skeleton every server of this repo is built on — the
// single-index server, the multi-tenant router, the remote coordinator
// and the shard server. It owns the ServeMux and answers the operational
// endpoints; a server registers its own API routes on the same mux with
// HandleFunc, so a request passes through no extra layer:
//
//	/healthz        liveness: 200 while the process serves
//	/readyz         readiness: 503 while the server has nothing loaded or
//	                is draining, 200 otherwise
//	/metrics        Prometheus text: the recorder's counters and histograms,
//	                then the runtime gauges
//	/debug/pprof/   net/http/pprof profiles
type Base struct {
	mux       *http.ServeMux
	notLoaded string
	rec       *stats.Recorder
	gauges    func(io.Writer)
	draining  atomic.Bool
}

// NewBase builds the skeleton. notLoaded, when not empty, is the status
// /readyz reports with a 503 because the server has nothing to serve
// ("engine not loaded"). rec, when not nil, is the recorder /metrics
// exposes; gauges, when not nil, writes the server's own gauges after the
// runtime ones.
func NewBase(notLoaded string, rec *stats.Recorder, gauges func(io.Writer)) *Base {
	b := &Base{mux: http.NewServeMux(), notLoaded: notLoaded, rec: rec, gauges: gauges}
	b.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	b.mux.HandleFunc("/readyz", b.handleReadyz)
	b.mux.HandleFunc("/metrics", b.handleMetrics)
	b.mux.HandleFunc("/debug/pprof/", pprof.Index)
	b.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	b.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	b.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	b.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return b
}

// HandleFunc registers a server's own route on the base's mux.
func (b *Base) HandleFunc(pattern string, h http.HandlerFunc) { b.mux.HandleFunc(pattern, h) }

// ServeHTTP implements http.Handler.
func (b *Base) ServeHTTP(w http.ResponseWriter, r *http.Request) { b.mux.ServeHTTP(w, r) }

// SetDraining flips the readiness signal: a draining server keeps
// answering in-flight and new requests (graceful shutdown semantics) but
// reports 503 on /readyz, so load balancers and the remote client's
// half-open breaker probes steer new traffic away.
func (b *Base) SetDraining(v bool) { b.draining.Store(v) }

func (b *Base) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case b.notLoaded != "":
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": b.notLoaded})
	case b.draining.Load():
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	default:
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (b *Base) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !Allowed(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Exposition errors past the first byte cannot be reported; scrapers
	// detect truncation themselves.
	if b.rec != nil {
		_ = b.rec.Snapshot().WritePrometheus(w)
	}
	rt := ReadRuntime()
	fmt.Fprintf(w, "# TYPE soi_runtime_goroutines gauge\nsoi_runtime_goroutines %d\n", rt.Goroutines)
	fmt.Fprintf(w, "# TYPE soi_runtime_gomaxprocs gauge\nsoi_runtime_gomaxprocs %d\n", rt.GOMAXPROCS)
	fmt.Fprintf(w, "# TYPE soi_runtime_heap_alloc_bytes gauge\nsoi_runtime_heap_alloc_bytes %d\n", rt.HeapAllocBytes)
	fmt.Fprintf(w, "# TYPE soi_runtime_num_gc_total counter\nsoi_runtime_num_gc_total %d\n", rt.NumGC)
	if b.gauges != nil {
		b.gauges(w)
	}
}

// Runtime is the Go runtime section of a server's /api/stats.
type Runtime struct {
	Goroutines     int    `json:"goroutines"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	NumCPU         int    `json:"num_cpu"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	NumGC          uint32 `json:"num_gc"`
}

// ReadRuntime samples the Go runtime.
func ReadRuntime() Runtime {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return Runtime{
		Goroutines:     runtime.NumGoroutine(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		HeapAllocBytes: mem.HeapAlloc,
		HeapSysBytes:   mem.HeapSys,
		NumGC:          mem.NumGC,
	}
}
