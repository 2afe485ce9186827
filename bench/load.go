package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Load shape shared by every workload: one driver process, one
// keep-alive connection, closed loop — the client sends its next request
// when the previous reply has been read in full, as an application
// back-end waiting on the service would. One client, not one per core:
// a load that keeps both of the sandbox's cores busy runs up to 1.4×
// faster or slower for minutes at a time, depending on whether the
// hypervisor has the two virtual CPUs on one physical core, and that
// swamps what the benchmark exists to show (README.md, "The sandbox").
// ingest_mixed adds a paced writer on a second connection.
const (
	// warmShare is the unrecorded warm-up as a share of the measured
	// phase (1.8 s before the 12 s BENCHMARK.json asks for).
	warmShare     = 0.15
	writeInterval = 500 * time.Millisecond
	// checkClients is how many connections send the cache touches and
	// answer checks, which are not timed.
	checkClients = 2
)

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: checkClients, MaxConnsPerHost: checkClients},
		Timeout:   30 * time.Second,
	}
}

// sample is one timed request of the measured phase.
type sample struct {
	kind opKind
	ok   bool
	at   time.Duration // sent this long after the measured phase began
	lat  time.Duration
	late time.Duration // paced writer only: how long after its due time the request was sent
}

// streetRow is one row of an /api/streets answer (soi.Street has no
// JSON tags, so the keys are the Go field names).
type streetRow struct {
	Name     string
	Interest float64
	Mass     float64
}

type streetsBody struct {
	Streets  []streetRow `json:"streets"`
	Degraded bool        `json:"degraded"`
}

type describeBody struct {
	Street    string
	Photos    []json.RawMessage
	Objective float64
}

type routeRow struct {
	Streets  []string `json:"streets"`
	Length   float64  `json:"length"`
	Interest float64  `json:"interest"`
	Score    float64  `json:"score"`
}

type routesBody struct {
	Routes []routeRow `json:"routes"`
}

type corridorRow struct {
	Name     string  `json:"name"`
	Coverage float64 `json:"coverage"`
	Interest float64 `json:"interest"`
	Score    float64 `json:"score"`
}

type trajBody struct {
	Streets []corridorRow `json:"streets"`
}

type writeBody struct {
	Added     int    `json:"added"`
	Epoch     uint64 `json:"epoch"`
	Published bool   `json:"published"`
}

// checkRanking verifies what every ranked answer must satisfy whatever
// the data: at most k rows, finite scores, highest first.
func checkRanking(rows, k int, score func(i int) float64) error {
	if rows > k {
		return fmt.Errorf("%d rows for k=%d", rows, k)
	}
	for i := 0; i < rows; i++ {
		s := score(i)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("row %d: non-finite score", i)
		}
		if i > 0 && s > score(i-1) {
			return fmt.Errorf("row %d: score %v above row %d's %v", i, s, i-1, score(i-1))
		}
	}
	return nil
}

// validate is the structural check applied to every timed response: a
// 2xx status, a body that decodes as the endpoint's answer, and a
// well-formed ranking.
func validate(r request, status int, body []byte) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, status, body)
	}
	switch r.kind {
	case opStreets:
		var b streetsBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if b.Degraded {
			return fmt.Errorf("degraded answer")
		}
		return checkRanking(len(b.Streets), r.rows, func(i int) float64 { return b.Streets[i].Interest })
	case opDescribe:
		var b describeBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if len(b.Photos) == 0 {
			return fmt.Errorf("empty summary")
		}
		return checkRanking(len(b.Photos), r.rows, func(int) float64 { return b.Objective })
	case opRoutes:
		var b routesBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		return checkRanking(len(b.Routes), r.rows, func(i int) float64 { return b.Routes[i].Score })
	case opTrajSOI:
		var b trajBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		return checkRanking(len(b.Streets), r.rows, func(i int) float64 { return b.Streets[i].Score })
	case opWrite:
		var b writeBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if b.Added != writeBatchSize || !b.Published {
			return fmt.Errorf("write acknowledged added=%d published=%v", b.Added, b.Published)
		}
		return nil
	}
	return fmt.Errorf("unknown request kind %d", r.kind)
}

// exchange sends one request and reads the reply in full into buf.
func exchange(ctx context.Context, client *http.Client, base string, r request, buf *bytes.Buffer) (int, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// do is exchange plus the structural check, timed up to the last body
// byte. The first failure of a run is kept for the report.
func (l *load) do(ctx context.Context, r request, buf *bytes.Buffer) sample {
	start := time.Now()
	status, err := exchange(ctx, l.client, l.base, r, buf)
	s := sample{kind: r.kind, lat: time.Since(start)}
	if err == nil {
		err = validate(r, status, buf.Bytes())
	}
	if err != nil {
		l.firstErr.CompareAndSwap(nil, &err)
		return s
	}
	s.ok = true
	return s
}

// load is one run of a workload's request stream against its servers.
type load struct {
	client *http.Client
	base   string
	seq    sequence
	// writes, when non-nil, adds a paced writer on a connection of its
	// own: one request due every writeInterval, timed from its due time
	// so a stalled server is charged for the requests it delayed.
	writes  []request
	pids    []int
	measure time.Duration

	firstErr atomic.Pointer[error]
}

// loadResult is what the measured phase observed.
type loadResult struct {
	samples   []sample
	cpu       float64     // children's CPU seconds over the measured phase
	acked     int         // writes acknowledged since the servers started
	began     time.Time   // when the measured phase began
	cal       *calibrator // the machine's speed over the measured phase
	exhausted bool        // the stream ran out before the phase ended
}

func sumCPU(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		s, err := cpuSeconds(pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// run drives the stream through an unrecorded warm-up straight into the
// measured phase: the client never pauses between the two, so the
// servers are in steady state when the first sample is taken. A request
// belongs to the phase it was sent in. Between requests the client runs
// its calibration slices (calibrate.go).
func (l *load) run(ctx context.Context) (loadResult, error) {
	start := time.Now()
	t0 := start.Add(time.Duration(warmShare * float64(l.measure)))
	t1 := t0.Add(l.measure)

	res := loadResult{began: t0}
	var writes []sample
	var wg sync.WaitGroup
	if l.writes != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := 0; j < len(l.writes); j++ {
				due := start.Add(time.Duration(j) * writeInterval)
				if !due.Before(t1) || ctx.Err() != nil {
					break
				}
				time.Sleep(time.Until(due))
				late := time.Since(due)
				s := l.do(ctx, l.writes[j], &buf)
				s.lat += late
				s.late = late
				if s.ok {
					res.acked++
				}
				if !due.Before(t0) {
					writes = append(writes, s)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		res.cal = newCalibrator()
		for i := 0; ctx.Err() == nil; i++ {
			sent := time.Now()
			if !sent.Before(t1) {
				break
			}
			if i >= l.seq.len() {
				res.exhausted = true
				break
			}
			s := l.do(ctx, l.seq.at(i), &buf)
			if !sent.Before(t0) {
				s.at = sent.Sub(t0)
				res.samples = append(res.samples, s)
			}
			res.cal.tick(!sent.Before(t0))
		}
	}()

	time.Sleep(time.Until(t0))
	cpu0, err0 := sumCPU(l.pids)
	wg.Wait()
	cpu1, err1 := sumCPU(l.pids)
	res.samples = append(res.samples, writes...)
	res.cpu = cpu1 - cpu0
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if err0 != nil {
		return res, err0
	}
	return res, err1
}

// sendAll sends each request once over the load's connections, closed
// loop, outside every timed phase (cache touches, answer checks). Each
// structurally valid reply is passed to verify, if given. It returns how
// many requests failed either test.
func (l *load) sendAll(ctx context.Context, reqs []request, verify func(i int, body []byte) error) int {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < checkClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if !l.do(ctx, reqs[i], &buf).ok {
					failed.Add(1)
				} else if verify != nil {
					if err := verify(i, buf.Bytes()); err != nil {
						l.firstErr.CompareAndSwap(nil, &err)
						failed.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	return int(failed.Load())
}

// fetchStats reads the stats section of a server's /api/stats (the
// single-process server and the shard coordinator share its shape).
func fetchStats(ctx context.Context, client *http.Client, base string) (stats.Snapshot, error) {
	var buf bytes.Buffer
	status, err := exchange(ctx, client, base, request{method: http.MethodGet, path: "/api/stats"}, &buf)
	if err != nil {
		return stats.Snapshot{}, err
	}
	if status != http.StatusOK {
		return stats.Snapshot{}, fmt.Errorf("/api/stats: status %d", status)
	}
	var body struct {
		Stats stats.Snapshot `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &body); err != nil {
		return stats.Snapshot{}, err
	}
	return body.Stats, nil
}
