package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	soi "repro"
	"repro/internal/remote"
	"repro/internal/server"
)

// TestMultiTenantServe is the end-to-end multi-tenant path: two
// snapshot cities served over a real listener through the tenant
// router, each answering with its own streets, then a graceful drain.
func TestMultiTenantServe(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"berlin", "vienna"} {
		streets := []soi.StreetInput{
			{Name: name + " High St", Polyline: []soi.Point{{X: 0, Y: 0}, {X: 0.002, Y: 0}}},
		}
		var pois []soi.POIInput
		for i := 0; i < 5; i++ {
			pois = append(pois, soi.POIInput{X: 0.0004 * float64(i), Y: 0.0001, Keywords: []string{"shop"}})
		}
		eng, err := soi.NewEngine(streets, pois, nil, soi.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.WriteSnapshot(filepath.Join(dir, name+".soi")); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := server.NewTenantServer(server.TenantConfig{Dir: dir, MaxOpen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- remote.Serve(ctx, ln, ts, 5*time.Second) }()

	base := "http://" + ln.Addr().String()
	for _, city := range []string{"berlin", "vienna", "berlin"} { // third hit reloads the evicted tenant
		resp, err := http.Get(fmt.Sprintf("%s/api/%s/streets?keywords=shop&k=1&eps=0.0005", base, city))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", city, resp.StatusCode, blob)
		}
		var body struct {
			Streets []struct{ Name string } `json:"streets"`
		}
		if err := json.Unmarshal(blob, &body); err != nil {
			t.Fatal(err)
		}
		if len(body.Streets) == 0 || body.Streets[0].Name != city+" High St" {
			t.Fatalf("%s answered %s", city, blob)
		}
	}

	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("graceful drain failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}
