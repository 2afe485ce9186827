package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one recorded interval at a layer boundary. The driver records
// spans from outside, around calls into each layer's public functions;
// the program itself is not instrumented.
type span struct {
	ID     int    `json:"id"`               // 1-based
	Parent int    `json:"parent,omitempty"` // the span that caused this one; 0 for a root
	Op     int    `json:"op,omitempty"`     // shared by the spans of one operation; 0 for build steps
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	// Rebased marks a child whose duration was not observed inside its
	// parent: it was measured by a paired pass over the same operation,
	// or reported by the program (core.Stats), and laid at the parent's
	// start so that self-time arithmetic treats it like any child.
	Rebased bool `json:"rebased,omitempty"`
}

// tracer keeps spans in memory until the run ends. With on false it
// still times (callers use the durations) but records nothing; the
// difference between the two is the tracing overhead.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{on: true, origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// mark is an open span.
type mark struct {
	id    int
	start time.Time
}

func (t *tracer) begin(name string, op int, parent mark) mark {
	m := mark{start: time.Now()}
	if t.on {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent.id, Op: op, Name: name,
			Start: int64(m.start.Sub(t.origin))})
		m.id = len(t.spans)
	}
	return m
}

// end closes the span and returns its duration.
func (t *tracer) end(m mark) time.Duration {
	d := time.Since(m.start)
	if m.id > 0 {
		t.spans[m.id-1].End = t.spans[m.id-1].Start + int64(d)
	}
	return d
}

// child records a rebased child of an already closed parent.
func (t *tracer) child(parent mark, name string, op int, d time.Duration) {
	if !t.on || parent.id == 0 {
		return
	}
	start := t.spans[parent.id-1].Start
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent.id, Op: op, Name: name,
		Start: start, End: start + int64(d), Rebased: true})
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once; a child is clipped to its parent).
func selfTimes(spans []span) map[int]time.Duration {
	type interval struct{ lo, hi int64 }
	children := map[int][]interval{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], interval{lo, hi})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			if iv.hi <= reach {
				continue
			}
			covered += iv.hi - max(iv.lo, reach)
			reach = iv.hi
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfByName groups self times by span name, in microseconds.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], micros(self[s.ID]))
	}
	return out
}

// traceFile is the shape of the trace written when a traced run ends.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) writeFile(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
