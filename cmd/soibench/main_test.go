package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

// The tests re-exec the test binary as the CLI: TestMain dispatches to
// main() when the marker variable is set, so flag parsing, log.Fatal
// exit codes and artifact output are exercised exactly as shipped.
func TestMain(m *testing.M) {
	if os.Getenv("SOIBENCH_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SOIBENCH_BE_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	exit = 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), exit
}

// TestShardFlagValidation: every invalid -shards/-tenants combination
// must exit non-zero with a diagnosis, before any dataset is generated.
func TestShardFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"negative shards", []string{"-shards", "-3", "-json", "x.json"}, "non-negative"},
		{"one shard", []string{"-shards", "1", "-json", "x.json"}, "at least 2"},
		{"shards without json", []string{"-shards", "4"}, "requires -json"},
		{"tenants without shards", []string{"-tenants", "3", "-json", "x.json"}, "needs -shards"},
		{"zero tenants", []string{"-shards", "4", "-tenants", "0", "-json", "x.json"}, "at least one tenant"},
		{"shards with parallel", []string{"-shards", "4", "-json", "x.json", "-parallel", "2"}, "mutually exclusive"},
		{"shards with stats", []string{"-shards", "4", "-json", "x.json", "-stats"}, "mutually exclusive"},
		{"json without a benchmark", []string{"-json", "x.json"}, "needs one of -shards"},
		{"bad flag", []string{"-bogus"}, ""},
	}
	for _, c := range cases {
		_, stderr, exit := runCLI(t, c.args...)
		if exit == 0 {
			t.Errorf("%s: accepted (args %v)", c.name, c.args)
			continue
		}
		if c.want != "" && !strings.Contains(stderr, c.want) {
			t.Errorf("%s: stderr %q missing %q", c.name, stderr, c.want)
		}
	}
}

// TestShardBenchArtifact runs the sharded benchmark end to end on a
// small workload and decodes the emitted artifact through the schema
// validator: correct bench name, shard/tenant shape, and counters that
// partition the scattered shards.
func TestShardBenchArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a city and runs the full sharded workload")
	}
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	stdout, stderr, exit := runCLI(t,
		"-json", out, "-shards", "4", "-tenants", "2",
		"-queries", "6", "-scale", "0.02", "-cities", "vienna")
	if exit != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", exit, stdout, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	r, err := benchfmt.Decode(data)
	if err != nil {
		t.Fatalf("artifact fails its own schema: %v", err)
	}
	if r.Bench != "sharded-scatter-gather" {
		t.Errorf("bench %q", r.Bench)
	}
	if r.Shards != 4 || r.Tenants != 2 || r.Queries != 12 {
		t.Errorf("shape shards=%d tenants=%d queries=%d, want 4/2/12", r.Shards, r.Tenants, r.Queries)
	}
	if len(r.Worlds) != 1 {
		t.Fatalf("%d worlds", len(r.Worlds))
	}
	w := r.Worlds[0]
	if w.Single == nil || w.Sharded == nil {
		t.Fatal("missing single/sharded metrics")
	}
	if w.Map != nil || w.Slab != nil {
		t.Error("sharded artifact carries map/slab metrics")
	}
	if w.ShardsTotal == 0 || w.ShardsEvaluated+w.ShardsPruned != w.ShardsTotal {
		t.Errorf("counters don't partition the shards: %+v", w)
	}
}
