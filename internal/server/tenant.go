package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	soi "repro"
	"repro/internal/engine"
	"repro/internal/httperr"
)

// DefaultMaxOpenTenants bounds how many snapshot engines stay resident
// when TenantConfig leaves MaxOpen zero.
const DefaultMaxOpenTenants = 4

// DefaultTenantInflight is the per-tenant admission quota when
// TenantConfig leaves MaxInflight zero: requests beyond it are shed
// with 503 before touching the tenant's engine, so one hot city cannot
// starve the others even when the shared engine queue would admit it.
const DefaultTenantInflight = 32

// TenantConfig tunes the multi-tenant router.
type TenantConfig struct {
	// Dir is scanned (non-recursively) for *.soi snapshots; each file's
	// base name becomes a tenant ("berlin.soi" → /api/berlin/...).
	Dir string
	// MaxOpen caps resident engines; the least recently used idle
	// engine is evicted (and its mmap released once the last in-flight
	// request finishes) when a new tenant must be admitted. 0 means
	// DefaultMaxOpenTenants.
	MaxOpen int
	// MaxInflight is the per-tenant admission quota. 0 means
	// DefaultTenantInflight.
	MaxInflight int
	// Engine configures each tenant's engine (workers, cache, queue).
	Engine soi.Config
	// HTTP configures each tenant's HTTP layer (batch body cap).
	HTTP Config
}

// tenant is one resident snapshot engine plus its routing state.
type tenant struct {
	name string
	eng  *soi.Engine
	srv  *Server
	// refs counts in-flight requests; lastUse orders LRU eviction.
	refs    int
	lastUse int64
	// evicted marks a tenant dropped from the resident set while
	// requests were still in flight; the last release closes it. Close
	// unmaps the snapshot, so it must never run with refs > 0.
	evicted bool
	// quota is the per-tenant admission gate; the router only ever takes
	// a free slot (TryAcquire), so an over-quota request is shed at once.
	quota *engine.Gate
}

// TenantServer routes /api/{city}/... over an LRU of mmap-loaded
// snapshot engines with per-tenant admission quotas. Its own /healthz,
// /readyz, /metrics (runtime gauges; each tenant's counters are under
// /api/{city}/metrics) and /debug/pprof/ come from the shared
// httperr.Base.
type TenantServer struct {
	*httperr.Base
	cfg   TenantConfig
	known map[string]string // tenant name → snapshot path

	mu    sync.Mutex
	open  map[string]*tenant
	clock int64
}

// NewTenantServer scans cfg.Dir for snapshots and builds the router.
// Engines load lazily on first request; the scan only fixes the tenant
// set, so adding a snapshot later requires a new server.
func NewTenantServer(cfg TenantConfig) (*TenantServer, error) {
	if cfg.MaxOpen == 0 {
		cfg.MaxOpen = DefaultMaxOpenTenants
	}
	if cfg.MaxOpen < 1 {
		return nil, fmt.Errorf("server: MaxOpen %d < 1", cfg.MaxOpen)
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultTenantInflight
	}
	if cfg.MaxInflight < 1 {
		return nil, fmt.Errorf("server: MaxInflight %d < 1", cfg.MaxInflight)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("server: scanning tenant dir: %w", err)
	}
	known := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".soi") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".soi")
		known[name] = filepath.Join(cfg.Dir, e.Name())
	}
	if len(known) == 0 {
		return nil, fmt.Errorf("server: no *.soi snapshots in %s", cfg.Dir)
	}
	ts := &TenantServer{
		Base:  httperr.NewBase("", nil, nil),
		cfg:   cfg,
		known: known,
		open:  make(map[string]*tenant),
	}
	ts.HandleFunc("/api/tenants", ts.handleTenants)
	ts.HandleFunc("/api/{city}/{rest...}", ts.handleTenant)
	return ts, nil
}

// Tenants returns the sorted tenant names the server routes.
func (ts *TenantServer) Tenants() []string {
	names := make([]string, 0, len(ts.known))
	for n := range ts.known {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close shuts every resident engine. It must not be called while
// requests are in flight.
func (ts *TenantServer) Close() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var first error
	for name, t := range ts.open {
		if err := t.eng.Close(); err != nil && first == nil {
			first = err
		}
		delete(ts.open, name)
	}
	return first
}

// handleTenants lists the routable and currently resident tenants.
func (ts *TenantServer) handleTenants(w http.ResponseWriter, r *http.Request) {
	ts.mu.Lock()
	resident := make([]string, 0, len(ts.open))
	for n := range ts.open {
		resident = append(resident, n)
	}
	ts.mu.Unlock()
	sort.Strings(resident)
	httperr.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"tenants":  ts.Tenants(),
		"resident": resident,
		"max_open": ts.cfg.MaxOpen,
	})
}

// handleTenant resolves the tenant, applies its admission quota, and
// forwards the request to the tenant's single-city handler set with the
// city prefix stripped.
func (ts *TenantServer) handleTenant(w http.ResponseWriter, r *http.Request) {
	city := r.PathValue("city")
	if _, ok := ts.known[city]; !ok {
		httperr.WriteError(w, http.StatusNotFound, fmt.Sprintf("server: unknown tenant %q", city))
		return
	}
	t, err := ts.acquire(city)
	if err != nil {
		httperr.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer ts.release(t)

	// Per-tenant admission quota, layered in front of the engine's own
	// shedder: over-quota requests never enter the tenant's queue.
	if !t.quota.TryAcquire() {
		w.Header().Set("Retry-After", "1")
		httperr.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("server: tenant %q over admission quota", city))
		return
	}
	defer t.quota.Release()

	rest := r.PathValue("rest")
	r2 := r.Clone(r.Context())
	switch {
	case rest == "metrics":
		r2.URL.Path = "/metrics"
	case strings.HasPrefix(rest, "debug/pprof"):
		r2.URL.Path = "/" + rest
	default:
		r2.URL.Path = "/api/" + rest
	}
	t.srv.ServeHTTP(w, r2)
}

// acquire resolves a known tenant, loading its engine on first use and
// evicting the least recently used idle engine when the resident set is
// full. The returned tenant holds a reference; callers must release it.
func (ts *TenantServer) acquire(city string) (*tenant, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.clock++
	if t, ok := ts.open[city]; ok {
		t.refs++
		t.lastUse = ts.clock
		return t, nil
	}
	for len(ts.open) >= ts.cfg.MaxOpen {
		lru := ts.lruLocked()
		if lru == nil {
			break // every resident tenant is mid-request; admit over cap
		}
		lru.evicted = true
		delete(ts.open, lru.name)
		if lru.refs == 0 {
			lru.eng.Close()
		}
	}
	eng, err := soi.NewEngineFromSnapshot(ts.known[city], ts.cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("server: loading tenant %q: %w", city, err)
	}
	t := &tenant{
		name:    city,
		eng:     eng,
		srv:     NewWithConfig(eng, ts.cfg.HTTP),
		refs:    1,
		lastUse: ts.clock,
		quota:   engine.NewGate(ts.cfg.MaxInflight, 0, 0),
	}
	ts.open[city] = t
	return t, nil
}

// lruLocked returns the least recently used tenant with no requests in
// flight, or nil when all resident tenants are busy.
func (ts *TenantServer) lruLocked() *tenant {
	var lru *tenant
	for _, t := range ts.open {
		if t.refs > 0 {
			continue
		}
		if lru == nil || t.lastUse < lru.lastUse {
			lru = t
		}
	}
	return lru
}

// release drops a request's reference; the last reference of an evicted
// tenant closes its engine (unmapping the snapshot).
func (ts *TenantServer) release(t *tenant) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t.refs--
	if t.evicted && t.refs == 0 {
		t.eng.Close()
	}
	// A burst can admit tenants over MaxOpen when every resident engine
	// is mid-request; shrink back to the cap as requests drain, oldest
	// idle engines first. Without this the over-cap set would persist
	// until some non-resident tenant forces an eviction — forever, if
	// every tenant is already resident.
	for len(ts.open) > ts.cfg.MaxOpen {
		lru := ts.lruLocked()
		if lru == nil {
			return // everything still busy; the next release retries
		}
		lru.evicted = true
		delete(ts.open, lru.name)
		lru.eng.Close() // lruLocked only returns tenants with refs == 0
	}
}
