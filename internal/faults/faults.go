// Package faults is a deterministic fault-injection registry used by the
// chaos test suite to exercise the query path's robustness machinery:
// cancellation checkpoints, load shedding, panic isolation and graceful
// degradation.
//
// Production code marks named sites with Inject (or InjectCtx where a
// context is in scope). With no fault armed — the normal state — a site
// costs one atomic load and a predicted branch; no locks, no map lookup,
// no allocation. Tests arm faults with Activate:
//
//	defer faults.Deactivate("core.filter")
//	faults.Activate("core.filter", faults.Fault{Panic: true})
//
// Faults are deterministic: a fault fires on exactly the visits its
// After/Times window selects, in visit order, so a test's failure
// schedule is a pure function of the workload. The registry is safe for
// concurrent use and is process-global, mirroring how the sites it
// serves are spread across packages.
package faults

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Fault describes what happens when an armed site is visited. Fields
// compose: a visit first sleeps Delay, then blocks on Block, then
// panics — so a single fault can model a slow-then-crashed evaluation.
type Fault struct {
	// Delay sleeps the visiting goroutine. InjectCtx returns early with
	// the context's error if the context expires first.
	Delay time.Duration
	// Block parks the visiting goroutine until the channel is closed (or,
	// for InjectCtx, the context is done). A nil channel never fires.
	// Closing the channel releases every parked visitor — the test's
	// "unwedge" switch.
	Block chan struct{}
	// Panic makes the visit panic with PanicValue (or a default string),
	// exercising recover-based isolation above the site.
	Panic bool
	// PanicValue is the value passed to panic when Panic is set.
	PanicValue any
	// Err makes InjectCtx return this error after Delay and Block have
	// run — the "drop" mode: a site that models a network operation
	// (dial, send, receive) propagates it exactly like a refused
	// connection or a reset stream, and a serving site can map it to a
	// 5xx response. Inject, which has no error channel, ignores it.
	Err error
	// After skips the first After visits before the fault fires.
	After int
	// Times bounds how many visits fire the fault; 0 means every visit
	// past After.
	Times int
}

// site is one armed site's state.
type site struct {
	fault  Fault
	visits int // total visits since arming, fired or not
	fired  int // visits that actually fired the fault
}

var (
	armed atomic.Int32 // number of armed sites; 0 = fast path
	mu    sync.Mutex
	sites = map[string]*site{}
)

// Activate arms a fault at the named site, replacing any previous fault
// there. Sites are plain strings agreed between the production code and
// the test (e.g. "core.filter", "engine.evaluate").
func Activate(name string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; !ok {
		armed.Add(1)
	}
	sites[name] = &site{fault: f}
}

// Deactivate disarms the named site; a no-op when it is not armed.
func Deactivate(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; ok {
		delete(sites, name)
		armed.Add(-1)
	}
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	if len(sites) > 0 {
		armed.Add(int32(-len(sites)))
		sites = map[string]*site{}
	}
}

// Visits returns how many times the named site has been visited since it
// was armed (0 when not armed).
func Visits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if s, ok := sites[name]; ok {
		return s.visits
	}
	return 0
}

// Fired returns how many visits actually fired the armed fault.
func Fired(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if s, ok := sites[name]; ok {
		return s.fired
	}
	return 0
}

// take records a visit and returns the fault to apply, if any.
func take(name string) (Fault, bool) {
	mu.Lock()
	defer mu.Unlock()
	s, ok := sites[name]
	if !ok {
		return Fault{}, false
	}
	s.visits++
	if s.visits <= s.fault.After {
		return Fault{}, false
	}
	if s.fault.Times > 0 && s.fired >= s.fault.Times {
		return Fault{}, false
	}
	s.fired++
	return s.fault, true
}

// Inject applies the fault armed at the named site, if any. The fast
// path — nothing armed anywhere — is one atomic load.
func Inject(name string) {
	if armed.Load() == 0 {
		return
	}
	f, ok := take(name)
	if !ok {
		return
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Block != nil {
		<-f.Block
	}
	if f.Panic {
		panicWith(f)
	}
}

// InjectCtx is Inject for sites with a context in scope: delays and
// blocks end early when the context is done, and the context error is
// returned so the site can propagate cancellation the same way a real
// slow operation would. A fault with Err set returns that error after
// its delay/block phases, modelling dropped connections and injected
// server faults. A nil error means the visit completed (or nothing was
// armed).
func InjectCtx(ctx context.Context, name string) error {
	if armed.Load() == 0 {
		return nil
	}
	f, ok := take(name)
	if !ok {
		return nil
	}
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if f.Block != nil {
		select {
		case <-f.Block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if f.Panic {
		panicWith(f)
	}
	return f.Err
}

// KeyedSite names the per-member variant of a site that is visited once
// per member of a group (one shard of a scatter): site "shard.scatter"
// with key 2 is "shard.scatter/2".
func KeyedSite(name string, key int) string { return name + "/" + strconv.Itoa(key) }

// InjectCtxKeyed visits the named site and then its KeyedSite variant
// for key, so a test can arm a fault on one member of a group whatever
// order the members' goroutines arrive in — a visit count cannot address
// one of several concurrent visitors. The fast path is the same single
// atomic load; the keyed name is only built while something is armed.
func InjectCtxKeyed(ctx context.Context, name string, key int) error {
	if armed.Load() == 0 {
		return nil
	}
	if err := InjectCtx(ctx, name); err != nil {
		return err
	}
	return InjectCtx(ctx, KeyedSite(name, key))
}

func panicWith(f Fault) {
	v := f.PanicValue
	if v == nil {
		v = "faults: injected panic"
	}
	panic(v)
}
