package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardWriter is a ResponseWriter that keeps the status and headers and
// throws the body away, so an allocation count sees only the server.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// TestServedHitAllocations pins what the serving fast path allocates
// through Server.ServeHTTP: a /api/streets answer sent as the result-cache
// entry's encoded body, and a /api/describe answer from the summary memo.
// Nearly every request of a hot, repetitive workload is one of these, so a
// handler that allocates more per request shows here first. The ceilings
// are the counts of the handlers this test was written against.
func TestServedHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := testServer(t)
	for _, c := range []struct {
		url     string
		ceiling float64
	}{
		{"/api/streets?keywords=shop&k=5", 10},
		{"/api/describe?street=High+St&k=2", 11},
	} {
		req := httptest.NewRequest(http.MethodGet, c.url, nil)
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			w.code = 0
			s.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("GET %s: status %d", c.url, w.code)
			}
		}
		// A miss, then the hit that keeps the encoded body.
		serve()
		serve()
		allocs := testing.AllocsPerRun(100, serve)
		t.Logf("GET %s: %.0f allocations per served hit", c.url, allocs)
		if allocs > c.ceiling {
			t.Errorf("GET %s: %.0f allocations per served hit, ceiling %.0f", c.url, allocs, c.ceiling)
		}
	}
}
