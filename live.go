package soi

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/stats"
	"repro/internal/vocab"
)

// LiveConfig extends Config with the write-path knobs of a live engine.
type LiveConfig struct {
	Config
	// BatchSize, when positive, auto-publishes a new index epoch once
	// the pending delta log reaches this many POIs; 0 means epochs are
	// published only by explicit Publish calls.
	BatchSize int
	// CompactAfter, when positive, auto-compacts the delta log into a
	// new base after this many publishes; 0 means compaction runs only
	// by explicit Compact calls.
	CompactAfter int
	// SnapshotPath, when non-empty, makes every compaction persist the
	// folded base as a .soi snapshot at this path.
	SnapshotPath string
}

// ErrNotLive is returned by the write-path methods of an engine that was
// not built with NewLiveEngine.
var ErrNotLive = errors.New("soi: engine has no ingest path (built without NewLiveEngine)")

// NewLiveEngine builds an engine whose POI corpus accepts live writes:
// POIs stream in through AddPOIs, are folded into immutable index epochs
// by Publish (or automatically per LiveConfig.BatchSize), and queries
// always evaluate against the epoch current at their start — readers
// never lock, and the result caches are keyed by epoch so a publish can
// never serve stale answers. The street network and photo corpus remain
// fixed for the engine's lifetime; only POIs churn.
//
// Call Close when done: it stops the background publisher/compactor.
func NewLiveEngine(streets []StreetInput, pois []POIInput, photos []PhotoInput, cfg LiveConfig) (*Engine, error) {
	net, err := networkFromInputs(streets)
	if err != nil {
		return nil, err
	}
	// Photos keep their own dictionary: DescribeStreet resolves tags
	// against it, while each POI epoch interns a fresh dictionary of its
	// own (keyword ids never cross the epoch boundary).
	phc := photoBuilderFromInputs(photos, vocab.NewDictionary())
	var phSpecs []ingest.PhotoSpec
	if cfg.SnapshotPath != "" {
		phSpecs = make([]ingest.PhotoSpec, len(photos))
		for i, p := range photos {
			phSpecs[i] = ingest.PhotoSpec{Loc: geo.Pt(p.X, p.Y), Tags: p.Tags}
		}
	}
	return newLiveEngine(net, deltasFromInputs(pois), phc, phSpecs, cfg)
}

// NewLiveEngineFromCorpora is NewLiveEngine over already-built internal
// corpora (datagen/dataio datasets): the POI corpus seeds the ingest
// base and its keywords are re-interned per epoch, so the input corpus
// stays untouched.
func NewLiveEngineFromCorpora(net *network.Network, pois *poi.Corpus, photos *photo.Corpus, cfg LiveConfig) (*Engine, error) {
	dict := pois.Dict()
	base := make([]ingest.Delta, pois.Len())
	for i := range base {
		p := pois.Get(poi.ID(i))
		base[i] = ingest.Delta{Loc: p.Loc, Keywords: dict.Names(p.Keywords), Weight: p.Weight}
	}
	var phSpecs []ingest.PhotoSpec
	if cfg.SnapshotPath != "" {
		phDict := photos.Dict()
		phSpecs = make([]ingest.PhotoSpec, photos.Len())
		for i := range phSpecs {
			ph := photos.Get(photo.ID(i))
			phSpecs[i] = ingest.PhotoSpec{Loc: ph.Loc, Tags: phDict.Names(ph.Tags)}
		}
	}
	return newLiveEngine(net, base, photos, phSpecs, cfg)
}

// newLiveEngine starts the ingest path over the base POIs and wires the
// serving stack to it. phSpecs is the photo corpus in the form compaction
// snapshots persist; it is only needed with cfg.SnapshotPath set.
func newLiveEngine(net *network.Network, base []ingest.Delta, photos *photo.Corpus, phSpecs []ingest.PhotoSpec, cfg LiveConfig) (*Engine, error) {
	cell := cfg.GridCellSize
	if cell == 0 {
		cell = DefaultCellSize
	}
	rec := stats.NewRecorder()
	ing, err := ingest.New(net, base, ingest.Config{
		CellSize:     cell,
		BatchSize:    cfg.BatchSize,
		CompactAfter: cfg.CompactAfter,
		SnapshotPath: cfg.SnapshotPath,
		Photos:       phSpecs,
		Recorder:     rec,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{net: net, photos: photos, dict: photos.Dict(), rec: rec, ing: ing}
	return e.serving(nil, ing, cfg.Config), nil
}

func deltasFromInputs(pois []POIInput) []ingest.Delta {
	ds := make([]ingest.Delta, len(pois))
	for i, p := range pois {
		ds[i] = ingest.Delta{Loc: geo.Pt(p.X, p.Y), Keywords: p.Keywords, Weight: p.Weight}
	}
	return ds
}

// Live reports whether the engine accepts POI writes.
func (e *Engine) Live() bool { return e.ing != nil }

// AddPOIs appends POIs to the live engine's delta log and returns the
// pending (not yet published) count. The call is a slice append under a
// mutex — it never builds an index and is never blocked by one. A batch
// with a POI POIInput.Validate refuses, or a location too far away (or
// not finite) for the index's cell lattice, is refused whole with an error
// matching ErrBadRequest: nothing is appended and the error says why.
func (e *Engine) AddPOIs(pois []POIInput) (pending int, err error) {
	if e.ing == nil {
		return 0, ErrNotLive
	}
	for i, p := range pois {
		if err := p.Validate(); err != nil {
			return 0, fmt.Errorf("soi: POI %d: %w", i, err)
		}
	}
	return e.ing.AddBatch(deltasFromInputs(pois))
}

// Validate refuses, with an error matching ErrBadRequest, a POI without
// keywords or with a weight poi.CheckWeight refuses (ErrBadWeight).
func (p POIInput) Validate() error {
	if len(p.Keywords) == 0 {
		return core.BadRequest(errors.New("keywords required"))
	}
	return core.BadRequest(poi.CheckWeight(p.Weight))
}

// Publish folds the pending deltas into a fresh index epoch and installs
// it; queries started after Publish returns see the new POIs. It returns
// the installed epoch's sequence number and how many deltas were folded
// (0 when nothing was pending).
func (e *Engine) Publish() (epoch uint64, folded int, err error) {
	if e.ing == nil {
		return 0, 0, ErrNotLive
	}
	return e.ing.Publish()
}

// Compact folds the published deltas into the base corpus, installs the
// compacted epoch (bit-identical answers to the epoch it replaces) and
// retires the old one. With LiveConfig.SnapshotPath set the folded base
// is also persisted as a .soi snapshot.
func (e *Engine) Compact() (epoch uint64, folded int, err error) {
	if e.ing == nil {
		return 0, 0, ErrNotLive
	}
	return e.ing.Compact()
}

// Epoch returns the sequence number of the currently serving index epoch
// (0 for engines without an ingest path; live epochs start at 1).
func (e *Engine) Epoch() uint64 {
	if e.ing == nil {
		return 0
	}
	return e.ing.Current().Seq()
}

// IngestCounts returns the live corpus accounting: POIs in the compacted
// base, published deltas awaiting compaction, and pending deltas
// awaiting publish. Zeroes for non-live engines.
func (e *Engine) IngestCounts() (base, published, pending int) {
	if e.ing == nil {
		return 0, 0, 0
	}
	return e.ing.Counts()
}

// IngestErr returns the last background publish/compaction failure of a
// live engine, nil otherwise.
func (e *Engine) IngestErr() error {
	if e.ing == nil {
		return nil
	}
	return e.ing.Err()
}
