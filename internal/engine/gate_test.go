package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateFreeSlotNeverQueuesOrSheds: arrivals that find a free slot take
// it without passing through the wait queue, so a queue of depth 1 in
// front of N free slots admits N simultaneous arrivals. (The trajectory
// gate this type replaced counted an arrival as a waiter before trying
// for a slot, and shed the second of two simultaneous arrivals.)
func TestGateFreeSlotNeverQueuesOrSheds(t *testing.T) {
	const slots = 8
	for round := 0; round < 50; round++ {
		g := NewGate(slots, 1, 0)
		start := make(chan struct{})
		errs := make(chan error, slots)
		for i := 0; i < slots; i++ {
			go func() {
				<-start
				errs <- g.Acquire(context.Background())
			}()
		}
		close(start)
		for i := 0; i < slots; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: arrival with a free slot refused: %v", round, err)
			}
		}
		if n := g.queued.Load(); n != 0 {
			t.Fatalf("round %d: %d callers counted as queued with every slot free", round, n)
		}
	}
}

// TestGateDepthIsAHardBound: with the only slot held, N concurrent
// arrivals leave exactly depth of them waiting and shed all the rest. (A
// load-then-add check lets racing arrivals all pass it and queue.)
func TestGateDepthIsAHardBound(t *testing.T) {
	const depth, arrivals = 3, 64
	g := NewGate(1, depth, 0)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var shed atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < arrivals; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			err := g.Acquire(ctx)
			switch {
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			case err == nil:
				g.Release()
			}
		}()
	}
	close(start)
	deadline := time.Now().Add(2 * time.Second)
	for shed.Load() != arrivals-depth {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d arrivals shed, want %d", shed.Load(), arrivals, arrivals-depth)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The counter overshoots its depth only for the instant a shed caller
	// takes to step back out; what waits is never more than depth.
	if n := g.queued.Load(); n != depth {
		t.Fatalf("%d callers waiting after the rest were shed, want %d", n, depth)
	}
	g.Release() // the waiters drain through the one slot
	wg.Wait()
	if n := shed.Load(); n != arrivals-depth {
		t.Fatalf("%d arrivals shed, want %d", n, arrivals-depth)
	}
	if n := g.queued.Load(); n != 0 {
		t.Fatalf("%d callers still counted as queued", n)
	}
}

// TestGateCancelledContextNeverRuns: a caller whose context is already
// cancelled is refused even when a slot is free — a single select over
// both picks at random.
func TestGateCancelledContextNeverRuns(t *testing.T) {
	g := NewGate(2, 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		if err := g.Acquire(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("try %d: err = %v, want context.Canceled", i, err)
		}
	}
	if len(g.slots) != 0 {
		t.Fatalf("%d slots taken by cancelled callers", len(g.slots))
	}
}

// TestGateMaxWaitSheds: a waiter is shed once the maximum queue wait
// elapses, and the gate admits again when the slot frees.
func TestGateMaxWaitSheds(t *testing.T) {
	g := NewGate(1, 0, 10*time.Millisecond)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded after the maximum queue wait", err)
	}
	g.Release()
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("free slot after release: %v", err)
	}
}

// TestGateZeroSlotsMeansGOMAXPROCS pins the one default every query
// family shares.
func TestGateZeroSlotsMeansGOMAXPROCS(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	if got := NewGate(0, 0, 0).Slots(); got != want {
		t.Fatalf("NewGate(0).Slots() = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := New(nil, Config{}).Workers(); got != want {
		t.Fatalf("executor default workers = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestGateTryAcquireNeverWaits: TryAcquire takes a free slot and refuses
// at once when none is free — it neither waits nor counts as queued,
// whatever the gate's queue allows — and a released slot is free again.
func TestGateTryAcquireNeverWaits(t *testing.T) {
	g := NewGate(2, 0, 0) // unbounded queue: Acquire would wait here
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("free slots refused")
	}
	if g.TryAcquire() {
		t.Fatal("third caller admitted past two slots")
	}
	if n := g.queued.Load(); n != 0 {
		t.Fatalf("%d callers counted as queued", n)
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("released slot refused")
	}
}
