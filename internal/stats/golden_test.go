package stats

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"reflect"
	"testing"
	"time"
)

// The exposition golden pins the bytes /api/stats and /metrics serve for
// one fully populated recorder. Every Counter and Histogram gets a value
// derived from an FNV-1a hash of its field path ("Engine.QueueDepth",
// "Traj.Outcomes.Shed"), not from its position, so reordering or
// regrouping the declarations cannot shift values between fields: only a
// change of name, tag, type or rendering moves the output. To re-derive
// the files for a deliberate change flip updateExpositionGolden and run
// the test.
const updateExpositionGolden = false

const (
	metricsGoldenFile = "testdata/metrics.golden"
	statsGoldenFile   = "testdata/stats.golden.json"
)

func pathHash(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64()
}

// fillByPath sets every exported Counter and Histogram reachable from v
// (a struct) from the hash of its dotted field path.
func fillByPath(v reflect.Value, prefix string) {
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		path := prefix + sf.Name
		switch p := v.Field(i).Addr().Interface().(type) {
		case *Counter:
			p.Store(int64(pathHash(path) % 1_000_000_007))
		case *Histogram:
			h := pathHash(path)
			for j := uint64(0); j < 3+h%5; j++ {
				// 1 ns to 90 s on a log scale, so observations spread
				// over the buckets and some land in +Inf.
				bits := h >> (7 * j)
				d := time.Duration(1 + bits%9)
				for e := (bits >> 4) % 11; e > 0; e-- {
					d *= 10
				}
				p.Observe(d)
			}
		default:
			if sf.Type.Kind() == reflect.Struct {
				fillByPath(v.Field(i), path+".")
			}
		}
	}
}

func TestExpositionGolden(t *testing.T) {
	r := NewRecorder()
	fillByPath(reflect.ValueOf(r).Elem(), "")
	r.Engine.Schedule.Store("drain")
	snap := r.Snapshot()

	var metrics bytes.Buffer
	if err := snap.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	js, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	js = append(js, '\n')

	for _, g := range []struct {
		file string
		got  []byte
	}{{metricsGoldenFile, metrics.Bytes()}, {statsGoldenFile, js}} {
		if updateExpositionGolden {
			if err := os.WriteFile(g.file, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted:\n--- got ---\n%s", g.file, g.got)
		}
	}
	if updateExpositionGolden {
		t.Fatal("goldens rewritten; flip updateExpositionGolden back")
	}
}
