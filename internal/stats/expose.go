package stats

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Snapshot as Prometheus text exposition for /metrics
// scrapers, deriving every metric from the snapshot's field tags by the
// naming rule in the package comment. The rendering is deterministic:
// counters and gauges, then histograms, then labels, each in sorted name
// order, and every float uses a fixed formatting, so two snapshots with
// equal values produce byte-identical output.

// metric is one exposed snapshot field: name is soi_-less snake_case,
// key the field's own json name, v an int64, HistogramSnapshot or
// string.
type metric struct {
	name, key string
	gauge     bool
	v         reflect.Value
}

// metrics appends a metric for every exposed field under v, a snapshot
// struct whose fields take prefix.
func metrics(v reflect.Value, prefix string, out []metric) []metric {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case key == "-":
		case f.Anonymous && f.Tag.Get("metric") == "bare":
			out = metrics(fv, "", out)
		case f.Anonymous:
			out = metrics(fv, prefix, out)
		case fv.Kind() == reflect.Struct && fv.Type() != reflect.TypeOf(HistogramSnapshot{}):
			out = metrics(fv, prefix+key+"_", out)
		default:
			out = append(out, metric{prefix + key, key, f.Tag.Get("metric") == "gauge", fv})
		}
	}
	return out
}

// rank orders the exposition: counters and gauges, histograms, labels.
func (m metric) rank() int {
	switch m.v.Kind() {
	case reflect.Int64:
		return 0
	case reflect.Struct:
		return 1
	}
	return 2
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format under the soi_ namespace. Counters get a _total suffix, gauges
// none; histograms render cumulative le buckets plus _sum and _count
// under a _seconds suffix. A label renders as an info gauge, omitted
// while unset: a snapshot fed by an executor ends with one naming its
// access schedule.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	ms := metrics(reflect.ValueOf(s), "", make([]metric, 0, 96)) // 88 fields today
	sort.Slice(ms, func(i, j int) bool {
		if ri, rj := ms[i].rank(), ms[j].rank(); ri != rj {
			return ri < rj
		}
		return ms[i].name < ms[j].name
	})
	// A bufio.Writer keeps the first write error and returns it from
	// Flush, so the rendering below needs no error checks of its own.
	bw := bufio.NewWriter(w)
	for _, m := range ms {
		m.write(bw)
	}
	return bw.Flush()
}

func (m metric) write(w io.Writer) {
	name := "soi_" + m.name
	switch v := m.v.Interface().(type) {
	case int64:
		if m.gauge {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
		} else {
			fmt.Fprintf(w, "# TYPE %s_total counter\n%s_total %d\n", name, name, v)
		}
	case string:
		if v != "" {
			fmt.Fprintf(w, "# TYPE %s_info gauge\n%s_info{%s=%q} 1\n", name, name, m.key, v)
		}
	case HistogramSnapshot:
		name += "_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		var cum int64
		for i, b := range bucketBoundsNanos {
			cum += v.Buckets[i]
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(float64(b)/1e9, 'g', -1, 64), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum+v.Buckets[NumBuckets-1])
		fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, strconv.FormatFloat(float64(v.SumNano)/1e9, 'g', -1, 64), name, v.Count)
	}
}
