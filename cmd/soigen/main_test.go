package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests re-exec the test binary as the CLI: TestMain dispatches to
// main() when the marker variable is set, so flag parsing, log.Fatal
// exit codes and file output are exercised exactly as shipped.
func TestMain(m *testing.M) {
	if os.Getenv("SOIGEN_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SOIGEN_BE_MAIN=1")
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

func TestGenerateSmall(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, exit := runCLI(t, "-city", "small", "-out", dir)
	if exit != 0 {
		t.Fatalf("exit %d, stderr: %s", exit, stderr)
	}
	// The Small(1) profile is deterministic; pin its shape.
	want := "Smallville: 173 streets, 1583 segments, 7650 POIs, 1450 photos"
	if !strings.Contains(stdout, want) {
		t.Fatalf("stdout %q missing %q", stdout, want)
	}
	for _, name := range []string{"streets.csv", "pois.csv", "photos.csv", "groundtruth.txt"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing output %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("empty output %s", name)
		}
	}
	gt, err := os.ReadFile(filepath.Join(dir, "groundtruth.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gt), "photo_street: Neue Schönhauser Straße") {
		t.Fatalf("groundtruth missing photo street:\n%s", gt)
	}
}

func TestSeedOverrideChangesData(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	if _, stderr, exit := runCLI(t, "-city", "small", "-out", a); exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	if _, stderr, exit := runCLI(t, "-city", "small", "-seed", "99", "-out", b); exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	pa, err := os.ReadFile(filepath.Join(a, "pois.csv"))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := os.ReadFile(filepath.Join(b, "pois.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(pa) == string(pb) {
		t.Fatal("-seed 99 produced identical POIs to the default seed")
	}
}

func TestBadInput(t *testing.T) {
	if _, stderr, exit := runCLI(t, "-city", "nowhere"); exit == 0 {
		t.Fatal("unknown city accepted")
	} else if !strings.Contains(stderr, "unknown city") {
		t.Fatalf("stderr %q missing diagnosis", stderr)
	}
	if _, _, exit := runCLI(t, "-bogus"); exit != 2 {
		t.Fatalf("bad flag: exit %d, want 2", exit)
	}
	// Snapshots are soibuild's job (soibuild -city, or -data over this
	// tool's output); the flags that duplicated it are gone.
	if _, _, exit := runCLI(t, "-city", "small", "-out", t.TempDir(), "-snapshot", "x.soi"); exit != 2 {
		t.Fatalf("retired -snapshot: exit %d, want 2", exit)
	}
	// An unwritable output path must fail loudly, not silently succeed.
	if _, _, exit := runCLI(t, "-city", "small", "-out", "/dev/null/nope"); exit == 0 {
		t.Fatal("unwritable -out accepted")
	}
}
