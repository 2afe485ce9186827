package remote

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// referenceP95 is the percentile rule p95 must keep: the ⌈0.95·n⌉-th
// smallest of the window's n samples, trusted from minHedgeSamples on.
func referenceP95(window []time.Duration) (time.Duration, bool) {
	if len(window) < minHedgeSamples {
		return 0, false
	}
	buf := append([]time.Duration(nil), window...)
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[(len(buf)*95+99)/100-1], true
}

// TestP95Windows: the adaptive hedge trigger over a table of windows —
// empty, below the trust threshold, exactly at it, full, wrapped past
// full, all-equal — is what the reference computes over the samples the
// ring still holds, and reading it allocates nothing: it runs under the
// shard's mutex once per retry round of every shard call.
func TestP95Windows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shuffled := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i, j := range rng.Perm(n) {
			out[i] = time.Duration(j+1) * time.Millisecond
		}
		return out
	}
	equal := make([]time.Duration, latencyWindow)
	for i := range equal {
		equal[i] = 7 * time.Millisecond
	}
	for _, tc := range []struct {
		name    string
		samples []time.Duration
		want    time.Duration
		ok      bool
	}{
		{"empty", nil, 0, false},
		{"below-threshold", shuffled(minHedgeSamples - 1), 0, false},
		{"at-threshold", shuffled(minHedgeSamples), 16 * time.Millisecond, true},
		{"full", shuffled(latencyWindow), 61 * time.Millisecond, true},
		{"wrapped", append(shuffled(latencyWindow), equal[:40]...), 0, true},
		{"all-equal", equal, 7 * time.Millisecond, true},
	} {
		ss := &shardState{}
		for _, d := range tc.samples {
			ss.observe(d)
		}
		held := tc.samples
		if len(held) > latencyWindow {
			held = held[len(held)-latencyWindow:]
		}
		want, ok := referenceP95(held)
		if tc.want != 0 && want != tc.want {
			t.Fatalf("%s: reference says %v, table says %v", tc.name, want, tc.want)
		}
		if got, gotOK := ss.p95(); got != want || gotOK != ok || ok != tc.ok {
			t.Errorf("%s: p95 = (%v, %v), want (%v, %v)", tc.name, got, gotOK, want, tc.ok)
		}
		if a := testing.AllocsPerRun(100, func() { ss.p95() }); a != 0 {
			t.Errorf("%s: p95 allocates %v times a call", tc.name, a)
		}
		// Reading the percentile must not reorder the ring it copies.
		if got, _ := ss.p95(); got != want {
			t.Errorf("%s: second read = %v, want %v", tc.name, got, want)
		}
	}
}
