package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/remote"
	"repro/internal/shard"
)

// The tests re-exec the test binary as the CLI: TestMain dispatches to
// main() when the marker variable is set, so flag parsing, snapshot
// loading, signal handling and exit codes are exercised exactly as
// shipped — each spawned soishard is a real separate process.
func TestMain(m *testing.M) {
	if os.Getenv("SOISHARD_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeManifest partitions a deterministic dataset, persists the
// per-shard snapshots + manifest into a temp dir, and returns the
// manifest path with the world reloaded from them shard by shard through
// shard.LoadShard, the loader each soishard child runs (the in-process
// oracle).
func writeManifest(t *testing.T) (string, *shard.World) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Tiny(7))
	if err != nil {
		t.Fatal(err)
	}
	w, err := shard.Partition(ds.Network, ds.POIs,
		shard.Config{Tiles: 2, Halo: 0.0012, CellSize: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Shards) < 2 {
		t.Fatalf("dataset partitioned into %d shards, need ≥ 2 for the e2e", len(w.Shards))
	}
	mf := filepath.Join(t.TempDir(), "world.manifest")
	if err := shard.WriteSnapshots(mf, w); err != nil {
		t.Fatal(err)
	}
	m, err := shard.LoadManifest(mf)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &shard.World{
		Bounds:   geo.Rect{MinX: m.Bounds[0], MinY: m.Bounds[1], MaxX: m.Bounds[2], MaxY: m.Bounds[3]},
		TilesX:   m.TilesX,
		TilesY:   m.TilesY,
		Halo:     m.Halo,
		CellSize: m.CellSize,
	}
	for id := range m.Shards {
		sh, _, mapping, err := shard.LoadShard(mf, id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mapping.Close() })
		loaded.Shards = append(loaded.Shards, sh)
	}
	return mf, loaded
}

// shardProc is one spawned soishard child process.
type shardProc struct {
	cmd    *exec.Cmd
	addr   string // host:port it actually listens on
	stderr *strings.Builder
	mu     *sync.Mutex
	// done closes once the child is reaped; waitErr is valid after.
	done    chan struct{}
	waitErr error
	// scanDone closes once the stderr scanner hits EOF — only then is
	// log() guaranteed to hold the child's complete output.
	scanDone chan struct{}
}

func (p *shardProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// startShard spawns soishard for one manifest shard on an OS-assigned
// port (-addr 127.0.0.1:0), parses the bound address from the child's
// startup log line, and waits for /readyz to answer 200.
func startShard(t *testing.T, manifest string, id int) *shardProc {
	t.Helper()
	cmd := exec.Command(os.Args[0],
		"-manifest", manifest, "-shard", fmt.Sprint(id), "-addr", "127.0.0.1:0",
		"-shutdown-grace", "5s")
	cmd.Env = append(os.Environ(), "SOISHARD_BE_MAIN=1")
	// An explicit pipe instead of StderrPipe: Wait must not close the
	// read side under the scanner, or the final drain lines are lost.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pw.Close() // the child holds the write end; EOF follows its exit
	p := &shardProc{cmd: cmd, stderr: &strings.Builder{}, mu: &sync.Mutex{},
		done: make(chan struct{}), scanDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.scanDone)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr.WriteString(line + "\n")
			p.mu.Unlock()
			// "soishard: serving shard 0/2 (...) on 127.0.0.1:43210"
			if i := strings.LastIndex(line, " on "); i >= 0 && strings.Contains(line, "serving shard") {
				select {
				case addrc <- line[i+len(" on "):]:
				default:
				}
			}
		}
	}()
	go func() { p.waitErr = cmd.Wait(); close(p.done) }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.done
	})
	select {
	case p.addr = <-addrc:
	case <-p.done:
		t.Fatalf("shard %d exited before listening: %v\n%s", id, p.waitErr, p.log())
	case <-time.After(15 * time.Second):
		t.Fatalf("shard %d never announced its address\n%s", id, p.log())
	}
	waitReady(t, p.addr)
	return p
}

func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s/readyz never answered 200", addr)
}

// e2eQueries spans pruned and unpruned shards: broad keyword sets that
// need every tile plus narrow ones a single shard can answer.
func e2eQueries() []core.Query {
	return []core.Query{
		{Keywords: []string{"shop", "food"}, K: 5, Epsilon: 0.0005},
		{Keywords: []string{"cafe"}, K: 3, Epsilon: 0.0008},
		{Keywords: []string{"shop", "cafe", "food"}, K: 10, Epsilon: 0.001},
		{Keywords: []string{"food"}, K: 1, Epsilon: 0.0003},
	}
}

// TestE2ECrossProcessScatterGather is the full three-process contract
// test: two real soishard children serve the shards, the test process
// runs the fault-tolerant client + coordinator against them, and every
// clean answer must be bit-identical to the in-process coordinator over
// the same snapshots. Then one child is killed mid-run: strict queries
// must refuse with the typed unavailable error, partial queries must
// degrade honestly (tagged, naming the dead shard) — never hang, never
// silently answer wrong.
func TestE2ECrossProcessScatterGather(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	mf, world := writeManifest(t)
	procs := make([]*shardProc, len(world.Shards))
	addrs := make([][]string, len(world.Shards))
	for i := range world.Shards {
		procs[i] = startShard(t, mf, i)
		addrs[i] = []string{procs[i].addr}
	}

	client, err := remote.NewClient(remote.Config{
		Addrs:          addrs,
		AttemptTimeout: 10 * time.Second,
		MaxAttempts:    2,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
		DisableHedge:   true, // loopback needs no hedges; keeps counters deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := shard.NewRemoteCoordinator(client, world.Halo)
	oracle := shard.NewCoordinator(world)
	ctx := context.Background()

	// Phase 1: all shards up — every answer clean and bit-identical.
	for _, q := range e2eQueries() {
		want, _, err := oracle.TopK(ctx, q)
		if err != nil {
			t.Fatalf("oracle %v: %v", q, err)
		}
		got, gather, err := coord.TopK(ctx, q, false)
		if err != nil {
			t.Fatalf("remote %v: %v", q, err)
		}
		if gather.Degraded || len(gather.MissingShards) > 0 {
			t.Fatalf("remote %v degraded over healthy shards: %+v", q, gather)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("remote %v diverged:\n got %+v\nwant %+v", q, got, want)
		}
	}

	// Phase 2: kill shard 0 outright (SIGKILL — no drain, the hard
	// failure mode) and re-run the workload.
	procs[0].cmd.Process.Kill()
	<-procs[0].done

	for _, q := range e2eQueries() {
		// A shard's bound rides on its answer, so a dead shard is missing
		// from every query: partial degrades, naming it, and strict
		// refuses.
		_, gather, err := coord.TopK(ctx, q, true)
		if err != nil {
			t.Fatalf("partial query %v errored: %v", q, err)
		}
		if !gather.Degraded || len(gather.MissingShards) != 1 || gather.MissingShards[0] != 0 {
			t.Errorf("%v: degraded=%v missing=%v, want tagged with [0]", q, gather.Degraded, gather.MissingShards)
		}
		if _, _, err := coord.TopK(ctx, q, false); !errors.Is(err, shard.ErrShardsUnavailable) {
			t.Errorf("%v: strict query over a dead shard: err = %v, want ErrShardsUnavailable", q, err)
		}
	}
}

// TestE2EGracefulDrain: SIGTERM must flip the shard through the drain
// path — logged drain, clean exit code 0 — rather than dying mid-flight.
func TestE2EGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	mf, world := writeManifest(t)
	_ = world
	p := startShard(t, mf, 0)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
		if p.waitErr != nil {
			t.Fatalf("SIGTERM exit: %v\n%s", p.waitErr, p.log())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("shard did not exit after SIGTERM\n%s", p.log())
	}
	select {
	case <-p.scanDone:
	case <-time.After(5 * time.Second):
		t.Fatalf("stderr scanner never saw EOF")
	}
	out := p.log()
	if !strings.Contains(out, "draining in-flight requests") {
		t.Errorf("drain not logged:\n%s", out)
	}
	if !strings.Contains(out, "shutdown complete") {
		t.Errorf("shutdown completion not logged:\n%s", out)
	}
}

// TestFlagAndLoadErrors: misuse must exit with a diagnosis — 2 for bad
// flags, 1 for load failures — before any socket is opened.
func TestFlagAndLoadErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	mf, _ := writeManifest(t)
	cases := []struct {
		name string
		args []string
		exit int
		want string // substring of stderr
	}{
		{"no manifest", []string{"-shard", "0"}, 2, "-manifest required"},
		{"no shard", []string{"-manifest", mf}, 2, "-shard required"},
		{"bad flag", []string{"-bogus"}, 2, ""},
		{"missing manifest file", []string{"-manifest", mf + ".nope", "-shard", "0"}, 1, "no such file"},
		{"shard out of range", []string{"-manifest", mf, "-shard", "99"}, 1, "out of range"},
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "SOISHARD_BE_MAIN=1")
		out, err := cmd.CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if exit != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, exit, c.exit, out)
		}
		if c.want != "" && !strings.Contains(string(out), c.want) {
			t.Errorf("%s: stderr %q does not contain %q", c.name, out, c.want)
		}
	}
}
