package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// The sandbox is a two-CPU virtual machine on a shared host, and how fast
// it runs a given piece of code changes by up to 1.5× and stays changed
// for minutes: everything with a high instruction rate — scans, sorts,
// encoding, system calls — slows together while a chain of dependent
// multiplications barely moves, which is what a busy neighbour on the
// same physical core does. Ten runs that straddle such a change spread
// by 0.2–0.4 of their median on every timing, whatever the program
// under test does.
//
// The driver therefore measures the machine with the program: the client
// runs a fixed slice of work of its own between requests (never during
// one), and a run's timings are divided by how much slower that slice
// ran than calSliceReference. What is reported is the time the run would
// have taken on a machine that holds the reference speed. The slice is
// made of what the servers are made of (a scan of cache-resident memory,
// a sort, a JSON round trip) and uses nothing of the program under test,
// so no change to the program moves it. README.md, "The sandbox", has
// the measurements this rests on.
const (
	// calEvery is the time between slices; a slice takes about 0.4 ms, so
	// calibration costs 2 % of the client's time. That time is taken out
	// of the measured phase's length when rates are computed.
	calEvery = 20 * time.Millisecond
	// calSliceReference is what a slice takes on the sandbox midway
	// between its fast and its slow state (0.3–0.5 ms). Only ratios to it
	// matter.
	calSliceReference = 400 * time.Microsecond
	// calBlock is how many slices are run back to back to calibrate a
	// phase the client is not part of (a set-up).
	calBlock = 25
	// calWindow is the stretch of the measured phase over which the
	// machine is taken to hold one speed; it changes every few seconds
	// at its most restless.
	calWindow = time.Second
)

// calibrator runs slices and keeps their times.
type calibrator struct {
	scan   []uint64
	keys   []uint64
	doc    streetsBody
	sink   uint64
	last   time.Time
	slices []float64     // seconds
	when   []time.Time   // when each slice ended
	spent  time.Duration // total time in recorded slices
}

func newCalibrator() *calibrator {
	c := &calibrator{
		scan: make([]uint64, 32<<10), // 256 KiB: resident in the second-level cache
		keys: make([]uint64, 1024),
		last: time.Now(),
	}
	x := uint64(1)
	for i := range c.scan {
		x = x*6364136223846793005 + 1442695040888963407
		c.scan[i] = x
	}
	for i := 0; i < 10; i++ {
		c.doc.Streets = append(c.doc.Streets, streetRow{Name: fmt.Sprintf("Street %d", i), Interest: 1.37 * float64(i), Mass: 11.1 * float64(i)})
	}
	return c
}

// slice is the fixed piece of work.
func (c *calibrator) slice() time.Duration {
	start := time.Now()
	var sum uint64
	for pass := 0; pass < 4; pass++ {
		for _, v := range c.scan {
			sum += v
		}
	}
	x := c.sink | 1
	for i := range c.keys {
		x = x*6364136223846793005 + 1442695040888963407
		c.keys[i] = x
	}
	sort.Slice(c.keys, func(i, j int) bool { return c.keys[i] < c.keys[j] })
	for i := 0; i < 8; i++ {
		// Neither call can fail on this value.
		data, _ := json.Marshal(c.doc)
		var back streetsBody
		_ = json.Unmarshal(data, &back)
		sum += uint64(len(back.Streets))
	}
	c.sink = sum ^ c.keys[0]
	return time.Since(start)
}

// tick runs one slice if calEvery has passed since the last, and keeps
// its time if record is set.
func (c *calibrator) tick(record bool) {
	if time.Since(c.last) < calEvery {
		return
	}
	d := c.slice()
	c.last = time.Now()
	if record {
		c.slices = append(c.slices, d.Seconds())
		c.when = append(c.when, c.last)
		c.spent += d
	}
}

// block runs calBlock slices back to back and returns their median time.
func (c *calibrator) block() float64 {
	times := make([]float64, calBlock)
	for i := range times {
		times[i] = c.slice().Seconds()
	}
	return median(times)
}

// slowdown is how many times slower than the reference a slice ran.
func slowdown(sliceSeconds float64) float64 {
	return sliceSeconds / calSliceReference.Seconds()
}

// windowSlowdowns returns the slowdown in each calWindow of the phase that
// began at t0: the median of the window's slices. Each request's latency
// is divided by its own window's slowdown before the median latency is
// taken — were the run's median latency divided by the run's median
// slowdown, a run spent half in each of two speeds would have two
// unstable medians, each landing on either speed. A window without a
// slice (a request longer than the window) takes the phase's median.
func (c *calibrator) windowSlowdowns(t0 time.Time, windows int) []float64 {
	byWindow := make([][]float64, windows)
	for i, s := range c.slices {
		w := windowOf(c.when[i].Sub(t0), windows)
		byWindow[w] = append(byWindow[w], s)
	}
	out := make([]float64, windows)
	for w, inWindow := range byWindow {
		if len(inWindow) == 0 {
			inWindow = c.slices
		}
		out[w] = slowdown(median(inWindow))
	}
	return out
}

// windowOf is the index of the window a time since the phase began falls
// in, of windows in all. The last request of a phase may end, and its
// slice run, after the phase did.
func windowOf(since time.Duration, windows int) int {
	return min(max(int(since/calWindow), 0), windows-1)
}

// meanSlowdown is the divisor for a rate or a cost per operation. Slices
// are spread evenly over time, while a closed loop completes fewer
// operations the slower the machine is; the operations of a phase
// therefore met the harmonic mean of the slowdowns over time, and that
// also keeps a slice that was interrupted from counting for much.
func (c *calibrator) meanSlowdown() float64 {
	inverse := 0.0
	for _, s := range c.slices {
		inverse += 1 / s
	}
	return slowdown(ratio(float64(len(c.slices)), inverse))
}
