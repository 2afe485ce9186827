package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	soi "repro"
	"repro/internal/remote"
	"repro/internal/server"
)

// TestGracefulShutdownDrainsInFlight proves the SIGTERM sequence: with a
// request in flight, cancelling the serve context must let the request
// finish (drain, not drop) and remote.Serve must return nil — the exit-0
// path of an orchestrated restart.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		fmt.Fprint(w, "drained")
	})

	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- remote.Serve(ctx, ln, handler, 5*time.Second) }()

	var wg sync.WaitGroup
	wg.Add(1)
	var body string
	var reqErr error
	go func() {
		defer wg.Done()
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			reqErr = err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			reqErr = err
			return
		}
		body = string(b)
	}()

	<-started
	cancel() // the SIGTERM moment: request still in flight
	// Give Shutdown a beat to stop accepting, then release the handler.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("remote.Serve returned %v, want nil (clean drain)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remote.Serve did not return after shutdown")
	}
	wg.Wait()
	if reqErr != nil {
		t.Fatalf("in-flight request failed during drain: %v", reqErr)
	}
	if body != "drained" {
		t.Fatalf("in-flight response = %q, want %q", body, "drained")
	}
}

// TestShutdownGraceExpiry: a request that outlives the grace period makes
// remote.Serve report the forced stop instead of hanging forever.
func TestShutdownGraceExpiry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-block
	})

	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- remote.Serve(ctx, ln, handler, 50*time.Millisecond) }()

	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	cancel()

	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("remote.Serve returned nil despite a wedged request outliving the grace period")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remote.Serve hung past the grace period")
	}
}

// drainable is every soiserve handler: remote.Serve flips its readiness
// off when the drain begins.
type drainable interface {
	http.Handler
	SetDraining(bool)
}

// holdingServer is a soiserve handler with one extra path: /hold parks
// until released and then answers as /readyz would at that moment.
type holdingServer struct {
	drainable
	started, release chan struct{}
}

func (h holdingServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/hold" {
		close(h.started)
		<-h.release
		r = r.Clone(r.Context())
		r.URL.Path = "/readyz"
	}
	h.drainable.ServeHTTP(w, r)
}

// TestShutdownReportsDraining: from the moment the drain begins — before
// the listener closes, and for the whole grace period — soiserve's
// /readyz must answer 503 "draining" in every serving mode, so balancers
// and the coordinator's half-open breaker probes steer away the way they
// do from a soishard.
func TestShutdownReportsDraining(t *testing.T) {
	eng, err := buildEngine("small", 1, "", "", soi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dir := t.TempDir()
	if err := eng.WriteSnapshot(filepath.Join(dir, "small.soi")); err != nil {
		t.Fatal(err)
	}
	tenants, err := server.NewTenantServer(server.TenantConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tenants.Close()
	// A coordinator whose one shard is down still serves (and drains).
	coord, closeClient, err := buildRemoteHandler(context.Background(), remoteOptions{addrs: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer closeClient()

	for name, h := range map[string]http.Handler{
		"index":       newHandler(eng, server.DefaultMaxBatchBytes),
		"tenants":     tenants,
		"shard-addrs": coord,
	} {
		t.Run(name, func(t *testing.T) { testShutdownReportsDraining(t, h.(drainable)) })
	}
}

func testShutdownReportsDraining(t *testing.T, d drainable) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := holdingServer{
		drainable: d,
		started:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	get := func(path string) (int, string, error) {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), err
	}

	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- remote.Serve(ctx, ln, h, 5*time.Second) }()
	if code, body, err := get("/readyz"); err != nil || code != http.StatusOK {
		t.Fatalf("/readyz before the drain = %d %q, %v", code, body, err)
	}

	type answer struct {
		code int
		body string
		err  error
	}
	held := make(chan answer, 1)
	go func() {
		code, body, err := get("/hold")
		held <- answer{code, body, err}
	}()
	<-h.started
	cancel() // the SIGTERM moment: request still in flight
	// The drain has begun once the listener refuses new connections.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, err := get("/readyz"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting 5 s after the cancel")
		}
	}
	close(h.release)
	if a := <-held; a.err != nil || a.code != http.StatusServiceUnavailable || !strings.Contains(a.body, "draining") {
		t.Fatalf("/readyz during the drain = %d %q, %v; want 503 draining", a.code, a.body, a.err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("remote.Serve returned %v, want nil (clean drain)", err)
	}
}
