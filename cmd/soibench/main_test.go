package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The tests re-exec the test binary as the CLI: TestMain dispatches to
// main() when the marker variable is set, so flag parsing, log.Fatal
// exit codes and output are exercised exactly as shipped.
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

// TestFlagValidation: malformed input must exit non-zero with a message
// naming the flag, before any city is loaded.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"stray argument", []string{"-exp", "table1", "vienna"}, `unexpected argument "vienna"`},
		{"zero scale", []string{"-scale", "0"}, "-scale must be positive"},
		{"negative scale", []string{"-scale", "-1"}, "-scale must be positive"},
		{"NaN scale", []string{"-scale", "NaN"}, "-scale must be positive"},
		{"infinite scale", []string{"-scale", "Inf"}, "-scale must be positive"},
		{"zero trials", []string{"-trials", "0"}, "-trials needs at least one"},
		{"negative trials", []string{"-trials", "-2"}, "-trials needs at least one"},
		{"unknown experiment", []string{"-exp", "table9"}, `unknown experiment "table9"`},
		{"retired flag", []string{"-parallel", "4"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		stdout, stderr, exit := runCLI(t, c.args...)
		if exit == 0 {
			t.Errorf("%s: accepted (args %v)", c.name, c.args)
			continue
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%s: stderr %q missing %q", c.name, stderr, c.want)
		}
		if strings.Contains(stdout, "Loading cities") {
			t.Errorf("%s: started loading cities before refusing", c.name)
		}
	}
}
