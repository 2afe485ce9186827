package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Gate is the admission gate every query family runs behind: a fixed
// number of slots, a bounded wait queue and a bounded wait. Each
// Executor owns one, which its k-SOI evaluations and every query admitted
// through Executor.Run share; the multi-tenant router keeps one per
// tenant as its quota.
//
// The contract, in the order Acquire applies it: a caller whose context
// is already done is refused with the context's error and never runs; a
// free slot is taken at once, without being counted as queued and without
// arming a timer; otherwise the caller waits, provided the queue holds
// fewer than its depth — the depth is a hard bound, excess callers are
// shed with ErrOverloaded — until a slot frees, its context ends, or the
// maximum queue wait elapses (ErrOverloaded again).
type Gate struct {
	slots   chan struct{}
	depth   int           // 0 = unbounded wait queue
	maxWait time.Duration // 0 = no wait bound
	queued  atomic.Int64  // callers currently waiting for a slot
}

// NewGate builds a gate with the given number of slots (0 or negative
// means GOMAXPROCS), wait-queue depth (0 disables the bound: every caller
// waits) and maximum queue wait (0 means no bound).
func NewGate(slots, queueDepth int, maxQueueWait time.Duration) *Gate {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Gate{slots: make(chan struct{}, slots), depth: queueDepth, maxWait: maxQueueWait}
}

// Slots returns the number of callers the gate admits at once.
func (g *Gate) Slots() int { return cap(g.slots) }

// Acquire claims a slot or says why not: the context's error, or
// ErrOverloaded when the caller was shed. Every nil return must be paired
// with one Release.
func (g *Gate) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if g.TryAcquire() {
		return nil
	}
	if g.depth > 0 {
		if n := g.queued.Add(1); n > int64(g.depth) {
			g.queued.Add(-1)
			return fmt.Errorf("%w: wait queue full (depth %d)", ErrOverloaded, g.depth)
		}
		defer g.queued.Add(-1)
	}
	var timeout <-chan time.Time
	if g.maxWait > 0 {
		t := time.NewTimer(g.maxWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timeout:
		return fmt.Errorf("%w: queue wait exceeded %v", ErrOverloaded, g.maxWait)
	}
}

// TryAcquire claims a slot only if one is free at once: it never waits,
// never counts as queued and never arms a timer. Every true return must be
// paired with one Release.
func (g *Gate) TryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees the slot a successful Acquire or TryAcquire claimed.
func (g *Gate) Release() { <-g.slots }
