// Package ingest is the write path of the SOI system: an epoch-based
// copy-on-write pipeline that lets POIs stream into a serving index
// whose readers never lock.
//
// Writers append deltas to a batched in-memory delta log (AddBatch —
// a mutex-guarded slice append, never blocked by index builds). A
// publisher (Publish, or the background goroutine when Config.BatchSize
// is set) extends the serving epoch's corpus by the logged deltas, builds
// a fresh immutable core.Index over it, wraps it in an Epoch, and
// installs it with one atomic pointer swap.
// Queries resolve the current epoch per evaluation through AcquireEpoch
// (the engine.EpochSource contract): one atomic load plus a refcount
// increment, no locks, and results are keyed by the epoch's sequence
// number so stale cache entries can never serve post-publish queries.
//
// Background compaction (Compact, or the background goroutine when
// Config.CompactAfter is set) folds the published deltas into the base.
// The serving index already covers exactly that corpus, so compaction
// builds nothing: it installs a new epoch around the same index and
// optionally persists it as a .soi snapshot (internal/snapshot). The
// previous epoch is retired by releasing its install reference; its
// index, unless a successor shares it, is freed when the last in-flight
// reader drains.
//
// Determinism: every epoch's corpus is the base specs followed by the
// published deltas in append order. Epoch n+1 copies epoch n's POIs,
// clones its dictionary and interns the new deltas into the clone; ids
// follow first appearance, so the clone assigns exactly the ids a fresh
// dictionary interning the whole corpus in order would. POI ids, slab
// builds and mass folds are therefore pure functions of the logical
// corpus, so an epoch's answers — and its slab bytes — are identical to a
// cold core.NewIndex build over the same POIs — the property the
// interleaved differential harness (internal/oracle) checks against the
// brute-force reference.
package ingest

import (
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Fault-injection sites visited by the write path (see internal/faults).
// The chaos suite arms them to delay, wedge or crash a publish or
// compaction at its most sensitive points; none of them can corrupt an
// installed epoch, because every site fires before the commit block that
// mutates the log and swaps the pointer.
const (
	// SitePublish is visited at the start of every publish, before the
	// delta log is read.
	SitePublish = "ingest.publish"
	// SiteCompact is visited at the start of every compaction.
	SiteCompact = "ingest.compact"
	// SiteSwap is visited after a publish or compaction has fully built
	// its new epoch, immediately before the commit block (log update +
	// atomic pointer swap).
	SiteSwap = "ingest.swap"
)

// Delta is one streamed POI: a location, keyword strings and an optional
// importance weight (0 means 1). Keywords are kept as strings — not
// interned ids — until a publish interns them into the new epoch's own
// dictionary, keeping dictionary mutation out of the concurrent write
// path.
type Delta struct {
	Loc      geo.Point
	Keywords []string
	Weight   float64
}

// PhotoSpec is a plain photo record used only when compaction persists
// snapshots: the photo corpus is re-interned into each snapshot's
// dictionary so the .soi file is self-consistent.
type PhotoSpec struct {
	Loc  geo.Point
	Tags []string
}

// Config controls the ingest pipeline.
type Config struct {
	// CellSize is the grid cell side of every epoch's index; 0 means
	// core's caller-facing default is NOT applied here — the Ingestor
	// requires a positive cell size and New rejects 0.
	CellSize float64
	// BatchSize, when positive, auto-publishes once the pending delta
	// log reaches this many entries (the publish runs on the background
	// goroutine; writers never build indexes inline).
	BatchSize int
	// CompactAfter, when positive, auto-compacts after this many
	// publishes since the last compaction.
	CompactAfter int
	// SnapshotPath, when non-empty, makes every compaction persist the
	// folded base as a .soi snapshot at this path (written atomically).
	SnapshotPath string
	// Photos are included in persisted snapshots (the .soi format
	// requires a photo section); ignored when SnapshotPath is empty.
	Photos []PhotoSpec
	// Recorder, when non-nil, receives the ingest counters and gauges.
	Recorder *stats.Recorder
}

// Ingestor owns the delta log and the epoch lifecycle. It is safe for
// concurrent use: any number of writers (Add/AddBatch) and readers
// (AcquireEpoch) may run concurrently with at most one publish or
// compaction at a time.
type Ingestor struct {
	net *network.Network
	cfg Config

	// cur is the installed epoch; readers touch nothing else.
	cur atomic.Pointer[Epoch]

	// mu guards the delta log, its accounting and lastErr. It is held
	// only for slice appends and snapshots of the log — never across an
	// index build — so writers are never blocked by a publish in progress.
	mu         sync.Mutex
	nBase      int     // POIs of the compacted baseline
	nPublished int     // folded into the current epoch, not yet compacted
	pending    []Delta // appended, not yet folded into any epoch
	lastErr    error   // last background publish/compact failure
	// extent is the bounds an index over everything accepted so far
	// derives (the network's grown over every POI, as core does per
	// build), kept incrementally so AddBatch can refuse a delta the cell
	// lattice cannot hold before it enters the log.
	extent geo.Rect

	// pubMu serializes publish and compaction; queries and writers never
	// take it.
	pubMu             sync.Mutex
	sinceCompact      int // publishes since the last compaction
	publishCh         chan struct{}
	compactCh         chan struct{}
	done              chan struct{}
	wg                sync.WaitGroup
	backgroundStarted bool

	live    atomic.Int64 // epochs not yet drained to zero refs
	retired atomic.Int64 // epochs fully released
}

// New builds an ingestor whose first epoch (sequence 1) indexes the base
// deltas. The base slice is not retained.
func New(net *network.Network, base []Delta, cfg Config) (*Ingestor, error) {
	if cfg.CellSize <= 0 {
		return nil, fmt.Errorf("ingest: non-positive cell size %v", cfg.CellSize)
	}
	if err := checkWeights(base); err != nil {
		return nil, fmt.Errorf("ingest: base POIs: %w", err)
	}
	ing := &Ingestor{
		net:       net,
		cfg:       cfg,
		nBase:     len(base),
		publishCh: make(chan struct{}, 1),
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	// The extent starts where core's bounds derivation starts: at the
	// network's bounds, or — an empty network contributes nothing — at
	// the rectangle any union replaces.
	ing.extent = geo.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	if net.NumVertices() > 0 {
		ing.extent = net.Bounds()
	}
	ing.extent = grow(ing.extent, base)
	ep, _, err := ing.buildEpoch(1, poi.NewBuilder(nil).Build(), base)
	if err != nil {
		return nil, err
	}
	ing.install(ep)
	if cfg.BatchSize > 0 || cfg.CompactAfter > 0 {
		ing.backgroundStarted = true
		ing.wg.Add(1)
		go ing.background()
	}
	return ing, nil
}

// checkWeights refuses deltas carrying a weight no POI may carry
// (poi.CheckWeight), naming the first.
func checkWeights(ds []Delta) error {
	for i, d := range ds {
		if err := poi.CheckWeight(d.Weight); err != nil {
			return fmt.Errorf("POI %d: %w", i, err)
		}
	}
	return nil
}

// grow returns extent grown over the deltas' locations.
func grow(extent geo.Rect, ds []Delta) geo.Rect {
	for _, d := range ds {
		extent = extent.Union(geo.NewRect(d.Loc, d.Loc))
	}
	return extent
}

// buildTimes splits one epoch build into its steps.
type buildTimes struct {
	extend, slab, open time.Duration
}

// buildEpoch builds a fresh immutable index epoch over prev's corpus
// followed by delta. Nothing of prev is mutated: the POIs are copied and
// the dictionary cloned, so no dictionary is ever written under readers,
// and because ids follow first appearance the clone interns delta to the
// ids a fresh dictionary over the whole corpus would assign.
func (ing *Ingestor) buildEpoch(seq uint64, prev *poi.Corpus, delta []Delta) (*Epoch, buildTimes, error) {
	var bt buildTimes
	start := time.Now()
	dict := prev.Dict().Clone()
	pois := make([]poi.POI, prev.Len(), prev.Len()+len(delta))
	copy(pois, prev.All())
	for _, d := range delta {
		pois = append(pois, poi.POI{ID: poi.ID(len(pois)), Loc: d.Loc, Keywords: dict.InternAll(d.Keywords), Weight: d.Weight})
	}
	corpus, err := poi.NewCorpus(pois, dict)
	if err != nil {
		return nil, bt, fmt.Errorf("ingest: building epoch %d: %w", seq, err)
	}
	bt.extend = time.Since(start)

	start = time.Now()
	slab, err := core.BuildSlab(ing.net, corpus, core.IndexConfig{CellSize: ing.cfg.CellSize})
	if err != nil {
		return nil, bt, fmt.Errorf("ingest: building epoch %d: %w", seq, err)
	}
	bt.slab = time.Since(start)

	start = time.Now()
	ix, err := core.NewIndexFromSlab(ing.net, corpus, slab)
	if err != nil {
		return nil, bt, fmt.Errorf("ingest: building epoch %d: %w", seq, err)
	}
	bt.open = time.Since(start)
	return newEpoch(seq, ix, ing.epochReleased), bt, nil
}

// install makes ep the serving epoch and retires the previous one by
// releasing its install reference.
func (ing *Ingestor) install(ep *Epoch) {
	ing.live.Add(1)
	if rec := ing.cfg.Recorder; rec != nil {
		rec.Ingest.EpochSeq.Store(int64(ep.seq))
		rec.Ingest.EpochsLive.Store(ing.live.Load())
	}
	old := ing.cur.Swap(ep)
	if old != nil {
		old.release()
	}
}

// epochReleased is the onRelease hook of every epoch: it folds the
// retirement into the gauges.
func (ing *Ingestor) epochReleased(*Epoch) {
	ing.retired.Add(1)
	live := ing.live.Add(-1)
	if rec := ing.cfg.Recorder; rec != nil {
		rec.Ingest.EpochsRetired.Add(1)
		rec.Ingest.EpochsLive.Store(live)
	}
}

// AcquireEpoch pins the current epoch for one query evaluation and
// returns its sequence number, index and release function.
// It implements engine.EpochSource: the fast path is one atomic pointer
// load plus one refcount CAS. The rare retry loop covers a reader that
// loaded an epoch pointer just as the epoch's last reference drained.
func (ing *Ingestor) AcquireEpoch() (uint64, *core.Index, func()) {
	for {
		ep := ing.cur.Load()
		if ep.tryAcquire() {
			return ep.seq, ep.ix, ep.release
		}
	}
}

// Current returns the installed epoch without pinning it (for
// inspection; the epoch may retire at any time).
func (ing *Ingestor) Current() *Epoch { return ing.cur.Load() }

// AddBatch appends deltas to the log and returns the pending count. The
// call never blocks on index builds; when auto-publish is configured and
// the batch threshold is reached, the background publisher is signalled.
//
// A batch holding a location the index could not cover — so far away
// that the cell lattice over the grown extent no longer fits int32 cell
// ids, or not finite — is refused whole with an error wrapping
// grid.ErrLattice, and one holding a weight poi.CheckWeight refuses with
// an error wrapping poi.ErrBadWeight: nothing is appended, because a
// logged delta no epoch can be built over, or whose mass overflows,
// would spoil every later epoch. Either refusal matches
// core.ErrBadRequest.
func (ing *Ingestor) AddBatch(ds []Delta) (int, error) {
	ing.mu.Lock()
	extent := grow(ing.extent, ds)
	err := checkWeights(ds)
	if err == nil && len(ds) > 0 {
		_, _, err = grid.Dims(extent, ing.cfg.CellSize)
	}
	if err != nil {
		n := len(ing.pending)
		ing.mu.Unlock()
		return n, core.BadRequest(fmt.Errorf("ingest: batch of %d POIs refused: %w", len(ds), err))
	}
	ing.extent = extent
	ing.pending = append(ing.pending, ds...)
	n := len(ing.pending)
	ing.mu.Unlock()
	if rec := ing.cfg.Recorder; rec != nil {
		rec.Ingest.DeltasAppended.Add(int64(len(ds)))
		rec.Ingest.DeltasPending.Store(int64(n))
	}
	if ing.cfg.BatchSize > 0 && n >= ing.cfg.BatchSize {
		select {
		case ing.publishCh <- struct{}{}:
		default:
		}
	}
	return n, nil
}

// Counts returns the corpus accounting: base POIs, published deltas not
// yet compacted, and pending deltas not yet published.
func (ing *Ingestor) Counts() (base, published, pending int) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.nBase, ing.nPublished, len(ing.pending)
}

// Err returns the last background publish or compaction failure, if any.
func (ing *Ingestor) Err() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.lastErr
}

// Publish folds every pending delta into a fresh epoch and installs it.
// With nothing pending it is a no-op returning the current sequence.
// The build runs outside the log mutex, so writers keep appending and
// readers keep serving the previous epoch throughout; the swap is one
// atomic store. A panic during the build (including injected faults) is
// recovered into the returned error and leaves the installed epoch and
// the delta log untouched.
func (ing *Ingestor) Publish() (seq uint64, folded int, err error) {
	ing.pubMu.Lock()
	defer ing.pubMu.Unlock()
	defer func() {
		if v := recover(); v != nil {
			seq, folded = ing.cur.Load().seq, 0
			err = fmt.Errorf("ingest: publish panicked: %v", v)
		}
	}()
	faults.Inject(SitePublish)

	ing.mu.Lock()
	delta := ing.pending[:len(ing.pending):len(ing.pending)]
	ing.mu.Unlock()
	cur := ing.cur.Load()
	if len(delta) == 0 {
		return cur.seq, 0, nil
	}

	// The serving epoch indexes exactly base + published (publishes and
	// compactions are serialized by pubMu), so extending its corpus by
	// the pending deltas is the whole logical corpus.
	start := time.Now()
	ep, bt, err := ing.buildEpoch(cur.seq+1, cur.ix.POIs(), delta)
	if err != nil {
		return cur.seq, 0, err
	}
	faults.Inject(SiteSwap)

	// Commit block: from here on nothing can fail. Move the folded
	// prefix of the pending log to published (writers may have appended
	// more in the meantime; those stay pending), then swap the epoch.
	ing.mu.Lock()
	ing.nPublished += len(delta)
	ing.pending = append([]Delta(nil), ing.pending[len(delta):]...)
	pendingNow := len(ing.pending)
	ing.mu.Unlock()
	ing.install(ep)
	ing.sinceCompact++
	if rec := ing.cfg.Recorder; rec != nil {
		rec.Ingest.Publishes.Add(1)
		rec.Ingest.PublishNanos.Add(time.Since(start).Nanoseconds())
		rec.Ingest.PublishExtendNanos.Add(bt.extend.Nanoseconds())
		rec.Ingest.PublishSlabNanos.Add(bt.slab.Nanoseconds())
		rec.Ingest.PublishOpenNanos.Add(bt.open.Nanoseconds())
		rec.Ingest.DeltasPending.Store(int64(pendingNow))
	}
	if ing.cfg.CompactAfter > 0 && ing.sinceCompact >= ing.cfg.CompactAfter {
		select {
		case ing.compactCh <- struct{}{}:
		default:
		}
	}
	return ep.seq, len(delta), nil
}

// Compact folds the published deltas into the base. The serving index
// already covers exactly the folded corpus, so nothing is rebuilt: a new
// epoch (next sequence number) is installed around the same index —
// answers are the same bits, the warmed ε-plans stay — the old epoch is
// retired, and (when configured) the index is persisted as a snapshot
// first. With nothing published it is a no-op. Pending deltas
// are untouched: they belong to a future publish.
func (ing *Ingestor) Compact() (seq uint64, folded int, err error) {
	ing.pubMu.Lock()
	defer ing.pubMu.Unlock()
	defer func() {
		if v := recover(); v != nil {
			seq, folded = ing.cur.Load().seq, 0
			err = fmt.Errorf("ingest: compact panicked: %v", v)
		}
	}()
	faults.Inject(SiteCompact)

	ing.mu.Lock()
	nPub := ing.nPublished
	ing.mu.Unlock()
	cur := ing.cur.Load()
	if nPub == 0 {
		return cur.seq, 0, nil
	}

	start := time.Now()
	if ing.cfg.SnapshotPath != "" {
		if err := ing.writeSnapshot(cur.ix); err != nil {
			return cur.seq, 0, err
		}
	}
	ep := newEpoch(cur.seq+1, cur.ix, ing.epochReleased)
	faults.Inject(SiteSwap)

	// Commit block: fold the log, swap, retire. The retiring epoch's
	// release frees nothing the new one reads: the index is its too.
	ing.mu.Lock()
	ing.nBase += nPub
	ing.nPublished = 0
	ing.mu.Unlock()
	ing.install(ep)
	ing.sinceCompact = 0
	if rec := ing.cfg.Recorder; rec != nil {
		rec.Ingest.Compactions.Add(1)
		rec.Ingest.CompactNanos.Add(time.Since(start).Nanoseconds())
	}
	return ep.seq, nPub, nil
}

// writeSnapshot persists the index's corpus and slab as a .soi file. The
// configured photos are interned into a clone of the index's dictionary —
// the index may be serving, and the next epoch clones its dictionary as it
// stands — so the snapshot is self-consistent and the index untouched.
func (ing *Ingestor) writeSnapshot(ix *core.Index) error {
	dict := ix.POIs().Dict().Clone()
	pois, err := poi.NewCorpus(ix.POIs().All(), dict)
	if err != nil {
		return err
	}
	rb := photo.NewBuilder(dict)
	for _, p := range ing.cfg.Photos {
		rb.Add(p.Loc, p.Tags)
	}
	return snapshot.WriteFile(ing.cfg.SnapshotPath, &snapshot.Snapshot{
		Net:    ing.net,
		POIs:   pois,
		Photos: rb.Build(),
		Slab:   ix.Slab(),
	})
}

// background drains the auto-publish and auto-compact signals until
// Close. Failures are retained in Err and logged.
func (ing *Ingestor) background() {
	defer ing.wg.Done()
	for {
		select {
		case <-ing.done:
			return
		case <-ing.publishCh:
			if _, _, err := ing.Publish(); err != nil {
				ing.setErr(err)
			}
		case <-ing.compactCh:
			if _, _, err := ing.Compact(); err != nil {
				ing.setErr(err)
			}
		}
	}
}

// setErr keeps a background failure for Err and logs it: the goroutine
// that met it has no caller to return it to, and a server reads no Err.
func (ing *Ingestor) setErr(err error) {
	log.Printf("ingest: background publish/compact failed: %v", err)
	ing.mu.Lock()
	ing.lastErr = err
	ing.mu.Unlock()
}

// Close stops the background publisher/compactor and waits for it. The
// installed epoch stays live (it holds its install reference) so
// in-flight and subsequent reads remain safe; Close only quiesces the
// write path.
func (ing *Ingestor) Close() error {
	if ing.backgroundStarted {
		ing.backgroundStarted = false
		close(ing.done)
		ing.wg.Wait()
	}
	return nil
}

// LiveEpochs exposes the live-epoch gauge.
func (ing *Ingestor) LiveEpochs() int64 { return ing.live.Load() }
