// Package soi identifies and describes Streets of Interest, implementing
// Skoutas, Sacharidis and Stamatoukos, "Identifying and Describing
// Streets of Interest" (EDBT 2016).
//
// Given a road network, a set of keyword-tagged POIs and a set of tagged
// photos, the package answers two queries:
//
//   - TopStreets ranks streets by interest: the density of query-relevant
//     POIs within distance ε of the street's best segment (the k-SOI
//     query, evaluated with the paper's SOI top-k algorithm).
//   - DescribeStreet selects a small, spatio-textually relevant and
//     diverse photo summary for a street (the SOI diversification
//     problem, evaluated with the paper's ST_Rel+Div algorithm).
//
// The Engine is built from plain input values so that callers need no
// knowledge of the internal index structures:
//
//	eng, err := soi.NewEngine(streets, pois, photos, soi.Config{})
//	top, err := eng.TopStreets(soi.Query{Keywords: []string{"shop"}, K: 10, Epsilon: 0.0005})
//	sum, err := eng.DescribeStreet(top[0].Name, soi.SummaryParams{K: 4, Epsilon: 0.0005})
package soi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/stats"
	"repro/internal/traj"
	"repro/internal/vocab"
)

// Point is a planar coordinate (longitude/latitude treated as Euclidean).
type Point struct {
	X, Y float64
}

// StreetInput describes one street as a named polyline; each consecutive
// point pair becomes one street segment.
type StreetInput struct {
	Name     string
	Polyline []Point
}

// POIInput is a point of interest with its keywords and an optional
// importance weight (0 means 1).
type POIInput struct {
	X, Y     float64
	Keywords []string
	Weight   float64
}

// PhotoInput is a geo-tagged photo.
type PhotoInput struct {
	X, Y float64
	Tags []string
}

// Config controls engine construction.
type Config struct {
	// GridCellSize is the spatial index cell side; defaults to 0.0005
	// (≈55 m at European latitudes), the paper's ε.
	GridCellSize float64
	// Workers bounds the number of queries evaluated concurrently — k-SOI,
	// routes, trajectories, describes and tour planning share one
	// admission gate; 0 means GOMAXPROCS.
	Workers int
	// CacheSize is the query result cache capacity; 0 means the engine
	// default, negative disables caching.
	CacheSize int
	// QueueDepth bounds how many queries may wait for a worker slot at
	// once; excess load is shed with ErrOverloaded instead of
	// queueing unboundedly. 0 disables the bound.
	QueueDepth int
	// MaxQueueWait bounds how long an admitted query may wait for a
	// worker slot before being shed with ErrOverloaded. 0 means no bound.
	MaxQueueWait time.Duration
	// QueryTimeout is the per-query deadline applied to every query on
	// top of the caller's context; 0 means none.
	QueryTimeout time.Duration
}

// DefaultCellSize is the grid cell side used when Config leaves it zero.
const DefaultCellSize = 0.0005

// Query is a k-SOI query ⟨Ψ, k, ε⟩.
type Query struct {
	// Keywords is the query keyword set Ψ.
	Keywords []string
	// K is the number of streets to return.
	K int
	// Epsilon is the distance threshold ε in coordinate units.
	Epsilon float64
}

// Street is one ranked street of a TopStreets answer.
type Street struct {
	Name string
	// Interest is the street's mass density (Definitions 1–3).
	Interest float64
	// Mass is the relevant-POI mass of the street's best segment.
	Mass float64
}

// SummaryParams configures DescribeStreet.
type SummaryParams struct {
	// K is the number of photos to select.
	K int
	// Lambda trades relevance (0) against diversity (1); default 0.5.
	Lambda float64
	// W trades the textual (0) against the spatial (1) aspect; default 0.5.
	W float64
	// Rho is the spatial-relevance neighborhood radius; default 0.0001.
	Rho float64
	// Epsilon associates photos within this distance with the street;
	// default 0.0005.
	Epsilon float64
}

// withDefaults fills zero fields with the paper's default parameters.
func (p SummaryParams) withDefaults() SummaryParams {
	if p.Lambda == 0 {
		p.Lambda = 0.5
	}
	if p.W == 0 {
		p.W = 0.5
	}
	if p.Rho == 0 {
		p.Rho = 0.0001
	}
	if p.Epsilon == 0 {
		p.Epsilon = DefaultCellSize
	}
	return p
}

// diversify is the Algorithm 2 view of the parameters.
func (p SummaryParams) diversify() diversify.Params {
	return diversify.Params{K: p.K, Lambda: p.Lambda, W: p.W, Rho: p.Rho}
}

// validate refuses what Algorithm 2 cannot run on, defaults already
// filled: k < 1, λ or w outside [0,1], ρ or ε not positive and finite.
// NaN fails every comparison, so each test is written to be true only
// for a good value.
func (p SummaryParams) validate() error {
	if err := p.diversify().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSummaryParams, err)
	}
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 1) {
		return fmt.Errorf("%w: epsilon %v is not a positive finite number", ErrBadSummaryParams, p.Epsilon)
	}
	return nil
}

// SummaryPhoto is one selected photo of a street summary.
type SummaryPhoto struct {
	X, Y float64
	Tags []string
}

// Summary is the result of DescribeStreet.
type Summary struct {
	Street string
	Photos []SummaryPhoto
	// Objective is the F score (Eq. 2) of the selected set.
	Objective float64
	// CandidateCount is |Rs|, the number of photos associated with the
	// street.
	CandidateCount int
}

// Engine evaluates k-SOI and description queries over one dataset. It is
// safe for concurrent use after construction: every query runs behind
// the admission gate of one shared parallel executor (a bounded worker
// pool), and k-SOI answers are kept in its LRU result cache.
type Engine struct {
	net    *network.Network
	pois   *poi.Corpus
	photos *photo.Corpus
	dict   *vocab.Dictionary
	index  *core.Index
	exec   *engine.Executor
	rec    *stats.Recorder

	// ing backs a live engine (NewLiveEngine): the write path that
	// publishes immutable index epochs. index and pois are nil for live
	// engines — the serving index is resolved per query via the epoch
	// source.
	ing *ingest.Ingestor

	// mapping backs a snapshot-loaded engine (the index's slab aliases
	// the mapped file); nil for engines built from in-memory data.
	mapping io.Closer

	// tourG is the tour planner's walking graph (RecommendTourCtx), built
	// on first use.
	tourOnce sync.Once
	tourG    *traj.Graph

	photoIdxOnce sync.Once
	photoIdx     *diversify.PhotoIndex
	photoIdxErr  error

	// contexts memoises what Algorithm 2 prepares before its greedy loop
	// (describeContext), weighted by the photos each context holds.
	contexts *engine.LRU[contextKey, *diversify.Context]

	// Trajectory query family (traj.go): the default snap radius of the
	// (immutable) network, the lazily built search graph and the matchers
	// of the most recently used radii.
	defaultSnap float64
	trajOnce    sync.Once
	trajG       *traj.Graph
	matchers    *engine.LRU[float64, *traj.Matcher]
}

// ErrNoMatch is matched (errors.Is) by every error that says a
// well-formed query has nothing to answer: no street matches a tour's
// keywords (ErrNoMatch itself), or a describe names a street the network
// lacks (ErrUnknownStreet) or one without photos within ε (ErrNoPhotos).
// Servers map it to 404.
var ErrNoMatch = errors.New("soi: no street matches the query")

// noMatch marks the error it carries as one of ErrNoMatch's: it reads and
// unwraps as that error and also matches ErrNoMatch.
type noMatch struct{ error }

func (e noMatch) Unwrap() error { return e.error }

// Is reports whether target is ErrNoMatch.
func (noMatch) Is(target error) bool { return target == ErrNoMatch }

// ErrUnknownStreet is returned by DescribeStreet for a street name that
// does not exist in the network. It matches ErrNoMatch.
var ErrUnknownStreet = errors.New("soi: unknown street")

// ErrNoPhotos is returned by DescribeStreet when the street has no
// associated photos within ε. It matches ErrNoMatch.
var ErrNoPhotos = diversify.ErrNoPhotos

// ErrBadSummaryParams is returned by DescribeStreet for parameters that
// are not finite or lie outside their range. Servers map it to 400.
var ErrBadSummaryParams = errors.New("soi: invalid summary parameters")

// ErrBadTourBudget is returned by RecommendTour for a budget that is not
// positive and finite, before the k-SOI query is evaluated. Servers map
// it to 400.
var ErrBadTourBudget = traj.ErrBadBudget

// ErrBadEpsilon is wrapped by the error TopRoutes and TrajectorySOI
// return for an ε that is not positive and finite, before the query is
// admitted. Servers map it to 400.
var ErrBadEpsilon = core.ErrBadEpsilon

// ErrBadWeight is wrapped by the error NewEngine, NewLiveEngine and
// AddPOIs return for a POI weight that is negative, not finite or above
// poi.MaxWeight (1e9). Servers map it to 400.
var ErrBadWeight = poi.ErrBadWeight

// ErrOverloaded is returned when the engine's admission control sheds a
// query instead of queueing it (the bounded wait queue was full or the
// maximum queue wait elapsed). It signals retryable backpressure.
var ErrOverloaded = engine.ErrOverloaded

// PanicError is the per-query error a recovered evaluation panic is
// converted into; the engine keeps serving. Servers should map it to an
// internal-error status, not a client error.
type PanicError = engine.PanicError

// NewEngine builds an engine from plain inputs. Streets must have at
// least two polyline points each.
func NewEngine(streets []StreetInput, pois []POIInput, photos []PhotoInput, cfg Config) (*Engine, error) {
	net, err := networkFromInputs(streets)
	if err != nil {
		return nil, err
	}
	dict := vocab.NewDictionary()
	pc, err := poiCorpusFromInputs(pois, dict)
	if err != nil {
		return nil, err
	}
	rb := photoBuilderFromInputs(photos, dict)
	return newEngine(net, pc, rb, dict, cfg)
}

func networkFromInputs(streets []StreetInput) (*network.Network, error) {
	nb := network.NewBuilder()
	for _, s := range streets {
		pts := make([]geo.Point, len(s.Polyline))
		for i, p := range s.Polyline {
			pts[i] = geo.Pt(p.X, p.Y)
		}
		nb.AddStreet(s.Name, pts)
	}
	net, err := nb.Build()
	if err != nil {
		return nil, fmt.Errorf("soi: building network: %w", err)
	}
	return net, nil
}

// poiCorpusFromInputs builds the POI corpus, refusing a weight
// poi.CheckWeight refuses.
func poiCorpusFromInputs(in []POIInput, dict *vocab.Dictionary) (*poi.Corpus, error) {
	pb := poi.NewBuilder(dict)
	for i, p := range in {
		if err := poi.CheckWeight(p.Weight); err != nil {
			return nil, fmt.Errorf("soi: POI %d: %w", i, err)
		}
		pb.AddWeighted(geo.Pt(p.X, p.Y), p.Keywords, p.Weight)
	}
	return pb.Build(), nil
}

func photoBuilderFromInputs(in []PhotoInput, dict *vocab.Dictionary) *photo.Corpus {
	rb := photo.NewBuilder(dict)
	for _, p := range in {
		rb.Add(geo.Pt(p.X, p.Y), p.Tags)
	}
	return rb.Build()
}

// NewEngineFromCorpora wires an engine over already-built internal
// corpora; it is the constructor used by the repository's tools, examples
// and benchmarks, which generate data with internal/datagen.
func NewEngineFromCorpora(net *network.Network, pois *poi.Corpus, photos *photo.Corpus, cfg Config) (*Engine, error) {
	return newEngine(net, pois, photos, pois.Dict(), cfg)
}

func newEngine(net *network.Network, pois *poi.Corpus, photos *photo.Corpus, dict *vocab.Dictionary, cfg Config) (*Engine, error) {
	cell := cfg.GridCellSize
	if cell == 0 {
		cell = DefaultCellSize
	}
	ix, err := core.NewIndex(net, pois, core.IndexConfig{CellSize: cell})
	if err != nil {
		return nil, fmt.Errorf("soi: building index: %w", err)
	}
	return newEngineWithIndex(net, pois, photos, dict, ix, cfg), nil
}

// newEngineWithIndex assembles the serving stack around an already-built
// index (fresh build or snapshot load).
func newEngineWithIndex(net *network.Network, pois *poi.Corpus, photos *photo.Corpus, dict *vocab.Dictionary, ix *core.Index, cfg Config) *Engine {
	rec := stats.NewRecorder()
	e := &Engine{net: net, pois: pois, photos: photos, dict: dict, index: ix, rec: rec}
	return e.serving(ix, nil, cfg)
}

// serving gives the engine its admission and execution stack, the one
// place Config's serving knobs are read: the executor over the fixed
// index ix — or, for a live engine, over the epoch source src — whose
// gate and deadline every query family runs behind. Zero Workers means
// GOMAXPROCS.
func (e *Engine) serving(ix *core.Index, src engine.EpochSource, cfg Config) *Engine {
	e.exec = engine.New(ix, engine.Config{
		Workers:      cfg.Workers,
		CacheSize:    cfg.CacheSize,
		QueueDepth:   cfg.QueueDepth,
		MaxQueueWait: cfg.MaxQueueWait,
		QueryTimeout: cfg.QueryTimeout,
		Recorder:     e.rec,
		Source:       src,
	})
	e.contexts = engine.NewLRU[contextKey, *diversify.Context](max(minContextMemoPhotos, int64(e.photos.Len())))
	e.defaultSnap = traj.DefaultSnap(e.net)
	e.matchers = engine.NewLRU[float64, *traj.Matcher](trajMatcherCacheSize)
	return e
}

// Warm precomputes the ε-dependent index structures so that subsequent
// query latencies exclude one-time augmentation work. For a live engine
// it warms the currently serving epoch.
func (e *Engine) Warm(epsilon float64) {
	if e.ing != nil {
		e.ing.Current().Index().Warm(epsilon)
		return
	}
	e.index.Warm(epsilon)
}

// NumStreets returns the number of streets in the network.
func (e *Engine) NumStreets() int { return e.net.NumStreets() }

// NumPOIs returns the number of indexed POIs: for a live engine, the
// POIs served by the current epoch (base plus published deltas; pending
// deltas are not yet indexed).
func (e *Engine) NumPOIs() int {
	if e.ing != nil {
		base, published, _ := e.ing.Counts()
		return base + published
	}
	return e.pois.Len()
}

// NumPhotos returns the number of indexed photos.
func (e *Engine) NumPhotos() int { return e.photos.Len() }

// TopStreets evaluates the k-SOI query with the SOI algorithm and returns
// the ranked streets (highest interest first). Streets with zero interest
// are omitted, so fewer than K results may return. Repeated queries are
// served from the engine's result cache.
func (e *Engine) TopStreets(q Query) ([]Street, error) {
	return e.TopStreetsCtx(context.Background(), q)
}

// TopStreetsCtx is TopStreets under a context: the query observes
// cancellation promptly (at the worker queue, at dedup joins and at the
// algorithm's cooperative checkpoints) and the engine's QueryTimeout, if
// configured, bounds the evaluation. An overloaded engine sheds the
// query with ErrOverloaded instead of queueing it unboundedly.
func (e *Engine) TopStreetsCtx(ctx context.Context, q Query) ([]Street, error) {
	res := e.exec.DoCtx(ctx, core.Query{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
	if res.Err != nil {
		return nil, res.Err
	}
	return toStreets(res.Streets), nil
}

// QueryTrace reports the per-stage work of one k-SOI evaluation: the
// phase timings of the paper's Figure 4 and the accessed-cell/segment
// counts of its Section 6 measurements. For a cached result the trace
// describes the original evaluation.
type QueryTrace struct {
	// Cached reports whether the answer was served without evaluation
	// (LRU result cache or an identical in-flight query).
	Cached bool `json:"cached"`
	// Epoch is the index epoch the answer was evaluated against (0 for
	// engines without a live ingest path; live epochs start at 1).
	Epoch uint64 `json:"epoch"`
	// Phase wall times in microseconds (Figure 4's breakdown).
	BuildListsMicros int64 `json:"build_lists_us"`
	FilterMicros     int64 `json:"filter_us"`
	RefineMicros     int64 `json:"refine_us"`
	// Source-list access counts: cells popped from SL1, segments
	// finalized via SL2 and SL3.
	SL1CellsPopped    int `json:"sl1_cells_popped"`
	SL2SegmentsPopped int `json:"sl2_segments_popped"`
	SL3SegmentsPopped int `json:"sl3_segments_popped"`
	// FilterIterations counts UB/LBk bound comparisons of the filter
	// loop.
	FilterIterations int `json:"filter_iterations"`
	// CellVisits counts per-segment cell visits (UpdateInterest calls
	// that did work).
	CellVisits int `json:"cell_visits"`
	// SegmentsSeen / SegmentsFinal count segments touched and segments
	// brought to exact mass; RefineDrained counts finalizations deferred
	// to the refinement phase.
	SegmentsSeen  int `json:"segments_seen"`
	SegmentsFinal int `json:"segments_final"`
	RefineDrained int `json:"refine_drained"`
	// TotalSegments and TotalCells size the search space the pruning is
	// measured against.
	TotalSegments int `json:"total_segments"`
	TotalCells    int `json:"total_cells"`
}

// traceOf converts an executor result's per-run stats into the public
// trace form.
func traceOf(res engine.Result) QueryTrace {
	s := res.Stats
	return QueryTrace{
		Cached:            res.Cached,
		Epoch:             res.Epoch,
		BuildListsMicros:  s.BuildListsTime.Microseconds(),
		FilterMicros:      s.FilterTime.Microseconds(),
		RefineMicros:      s.RefineTime.Microseconds(),
		SL1CellsPopped:    s.CellAccesses,
		SL2SegmentsPopped: s.SL2Accesses,
		SL3SegmentsPopped: s.SL3Accesses,
		FilterIterations:  s.FilterIterations,
		CellVisits:        s.CellVisits,
		SegmentsSeen:      s.SegmentsSeen,
		SegmentsFinal:     s.SegmentsFinal,
		RefineDrained:     s.RefineDrained,
		TotalSegments:     s.TotalSegments,
		TotalCells:        s.TotalCells,
	}
}

// TopStreetsTraced is TopStreets returning the evaluation's per-stage
// trace alongside the answer.
func (e *Engine) TopStreetsTraced(q Query) ([]Street, QueryTrace, error) {
	return e.TopStreetsTracedCtx(context.Background(), q)
}

// TopStreetsTracedCtx is TopStreetsTraced under a context.
func (e *Engine) TopStreetsTracedCtx(ctx context.Context, q Query) ([]Street, QueryTrace, error) {
	res := e.exec.DoCtx(ctx, core.Query{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
	if res.Err != nil {
		return nil, QueryTrace{}, res.Err
	}
	return toStreets(res.Streets), traceOf(res), nil
}

// TopStreetsEncodedCtx is TopStreetsCtx for a caller that serialises the
// answer. When the answer comes from a result-cache entry it returns the
// entry's encoded body and no streets: the first hit on an entry runs
// encode and keeps the bytes with the entry, later hits return them as
// they are. Otherwise — a fresh evaluation, a joined one, caching
// disabled — body is nil and the caller encodes streets itself. All
// callers of one engine must pass the same encoding; the returned bytes
// are shared and read-only.
func (e *Engine) TopStreetsEncodedCtx(ctx context.Context, q Query, encode func([]Street) []byte) (streets []Street, body []byte, err error) {
	res := e.exec.DoCtx(ctx, core.Query{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
	if res.Err != nil {
		return nil, nil, res.Err
	}
	encoded := false
	body = res.EncodedBody(func(rs []core.StreetResult) []byte {
		encoded = true
		return encode(toStreets(rs))
	})
	if body == nil {
		return toStreets(res.Streets), nil, nil
	}
	if !encoded {
		e.rec.Engine.ResultBodyReuse.Add(1)
	}
	return nil, body, nil
}

func toStreets(res []core.StreetResult) []Street {
	out := make([]Street, len(res))
	for i, r := range res {
		out[i] = Street{Name: r.Name, Interest: r.Interest, Mass: r.Mass}
	}
	return out
}

// BatchResult is one entry of a TopStreetsBatch answer.
type BatchResult struct {
	Streets []Street
	Err     error
	// Trace describes the evaluation that produced the entry (shared by
	// every query coalesced into it).
	Trace QueryTrace
}

// TopStreetsBatch evaluates many k-SOI queries concurrently over the
// shared index with the engine's bounded worker pool, returning results
// in input order. Each query succeeds or fails independently.
func (e *Engine) TopStreetsBatch(qs []Query) []BatchResult {
	return e.TopStreetsBatchCtx(context.Background(), qs)
}

// TopStreetsBatchCtx is TopStreetsBatch under a context: a cancelled
// context fails the batch's not-yet-evaluated entries promptly, and the
// engine's QueryTimeout bounds each coalesced evaluation.
func (e *Engine) TopStreetsBatchCtx(ctx context.Context, qs []Query) []BatchResult {
	cqs := make([]core.Query, len(qs))
	for i, q := range qs {
		cqs[i] = core.Query{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon}
	}
	results := e.exec.BatchCtx(ctx, cqs)
	out := make([]BatchResult, len(results))
	for i, r := range results {
		if r.Err != nil {
			out[i] = BatchResult{Err: r.Err}
			continue
		}
		out[i] = BatchResult{Streets: toStreets(r.Streets), Trace: traceOf(r)}
	}
	return out
}

// StatsRecorder returns the engine's observability recorder; all k-SOI
// and description traffic folds into it.
func (e *Engine) StatsRecorder() *stats.Recorder { return e.rec }

// StatsSnapshot returns a point-in-time copy of every observability
// counter and latency histogram.
func (e *Engine) StatsSnapshot() stats.Snapshot { return e.rec.Snapshot() }

// TourStop is one street visit of a recommended tour.
type TourStop struct {
	Street   string
	Interest float64
	// Walk is the walking distance from the previous stop (0 for the
	// first stop).
	Walk float64
}

// UnreachedStreet is a k-SOI result street the tour planner dropped
// because no path connects it to the tour (it lies in a disconnected
// component of the walking graph), with its forgone interest.
type UnreachedStreet struct {
	Street   string
	Interest float64
}

// Tour is a recommended walking route over streets of interest.
type Tour struct {
	Stops []TourStop
	// Length is the total walking length including the visited streets.
	Length float64
	// Interest is the summed interest of the visited streets.
	Interest float64
	// Unreached lists result streets the planner could not connect to
	// the tour at all; streets merely over budget are not listed.
	Unreached []UnreachedStreet
}

// RecommendTour implements the paper's future-work extension: evaluate
// the k-SOI query and plan a walking tour over the resulting streets
// within the given length budget (coordinate units), greedily maximizing
// interest per walking distance.
func (e *Engine) RecommendTour(q Query, budget float64) (Tour, error) {
	return e.RecommendTourCtx(context.Background(), q, budget)
}

// RecommendTourCtx is RecommendTour under a context. The k-SOI evaluation
// runs through the executor; once it has answered and released its slot,
// the planner is admitted through the same gate, runs under the engine's
// QueryTimeout and observes cancellation in every search, so an
// overloaded engine sheds it with ErrOverloaded and a panic in it is
// isolated into a *PanicError. The two halves run one after the other,
// never nested, so one gate cannot deadlock a tour. A budget the planner
// would refuse is refused first, with ErrBadTourBudget, so it costs no
// evaluation.
func (e *Engine) RecommendTourCtx(ctx context.Context, q Query, budget float64) (Tour, error) {
	if err := traj.CheckBudget(budget); err != nil {
		return Tour{}, err
	}
	er := e.exec.DoCtx(ctx, core.Query{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon})
	if er.Err != nil {
		return Tour{}, er.Err
	}
	res := er.Streets
	if len(res) == 0 {
		return Tour{}, ErrNoMatch
	}
	cands := make([]traj.Candidate, len(res))
	for i, r := range res {
		cands[i] = traj.Candidate{Street: r.Street, Interest: r.Interest}
	}
	var tour traj.Tour
	err := e.exec.Run(ctx, &e.rec.Traj.Outcomes, func(ctx context.Context, _ *core.Index) (err error) {
		tour, err = traj.Recommend(ctx, e.tourGraph(), cands, budget)
		return err
	})
	if err != nil {
		return Tour{}, err
	}
	out := Tour{Length: tour.Length, Interest: tour.Interest}
	for _, s := range tour.Stops {
		out.Stops = append(out.Stops, TourStop{
			Street:   s.Name,
			Interest: s.Interest,
			Walk:     s.Approach.Length,
		})
	}
	for _, u := range tour.Unreached {
		out.Unreached = append(out.Unreached, UnreachedStreet{Street: u.Name, Interest: u.Interest})
	}
	return out, nil
}

// tourGraph lazily builds the tour planner's walking graph. Its
// connectors reach 1.5× the network's mean segment length — twice the
// route search's DefaultSnap, which keeps its branching factor small —
// wide enough to join streets that cross without sharing a vertex (the
// normal case for digitized data).
func (e *Engine) tourGraph() *traj.Graph {
	e.tourOnce.Do(func() { e.tourG = traj.NewGraph(e.net, 2*e.defaultSnap) })
	return e.tourG
}

// DescribeStreet selects a diversified photo summary for the named street
// using the ST_Rel+Div algorithm with the paper's default parameters
// where SummaryParams fields are zero.
func (e *Engine) DescribeStreet(name string, p SummaryParams) (Summary, error) {
	return e.DescribeStreetCtx(context.Background(), name, p)
}

// DescribeStreetCtx is DescribeStreet under a context, admitted through
// the gate every query family queues behind: an overloaded engine
// sheds the query with ErrOverloaded, a context that ends while it waits
// (or ended before it arrived) refuses it, and a panic in the algorithm
// is isolated into a *PanicError. Parameters that are not finite or out
// of range are refused with ErrBadSummaryParams.
func (e *Engine) DescribeStreetCtx(ctx context.Context, name string, p SummaryParams) (Summary, error) {
	p = p.withDefaults()
	st := e.net.StreetByName(name)
	if st == nil {
		return Summary{}, noMatch{fmt.Errorf("%w: %q", ErrUnknownStreet, name)}
	}
	if err := p.validate(); err != nil {
		return Summary{}, err
	}
	var (
		dctx *diversify.Context
		res  diversify.Result
	)
	err := e.exec.Run(ctx, &e.rec.Traj.Outcomes, func(context.Context, *core.Index) (err error) {
		if dctx, err = e.describeContext(st, p.Epsilon, p.Rho); err != nil {
			return err
		}
		res, err = dctx.STRelDiv(p.diversify())
		return err
	})
	if err != nil {
		return Summary{}, err
	}
	rs := dctx.Photos()
	res.Stats.Record(e.rec, len(rs))
	sum := Summary{
		Street:         name,
		Objective:      res.Objective,
		CandidateCount: len(rs),
	}
	for _, i := range res.Selected {
		ph := rs[i]
		sum.Photos = append(sum.Photos, SummaryPhoto{
			X:    ph.Loc.X,
			Y:    ph.Loc.Y,
			Tags: e.dict.Names(ph.Tags),
		})
	}
	return sum, nil
}

// contextKey identifies everything Algorithm 2 prepares before its greedy
// loop: Rs and maxD(s) follow from (street, ε); Φs from Rs; Def. 4 spatial
// relevance, the ρ/2 grid and the Eq. 11–14 per-cell bounds from (Rs, ρ).
// k, λ and w enter only the loop. Both floats have passed
// SummaryParams.validate — a NaN key would never be found again.
type contextKey struct {
	street   network.StreetID
	eps, rho float64
}

// minContextMemoPhotos is the floor of the describe-context memo's budget.
// The budget is Σ|Rs| ≤ max(this, corpus size): sized in photos because a
// context's memory follows its pool, and by the corpus because a full memo
// then holds about as many photos as the engine already does.
const minContextMemoPhotos = 4096

// describeContext returns the street's evaluation context for (ε, ρ) from
// the engine's memo, building and remembering it on first use. A context
// is read-only once built, so one is shared by every concurrent describe
// of the street. It is built outside the memo's lock: concurrent first
// touches may both build, and the memo keeps one. A street without photos
// is an error, not an entry.
func (e *Engine) describeContext(st *network.Street, eps, rho float64) (*diversify.Context, error) {
	key := contextKey{street: st.ID, eps: eps, rho: rho}
	d := &e.rec.Diversify
	if dctx, ok := e.contexts.Get(key); ok {
		d.ContextMemoHits.Add(1)
		return dctx, nil
	}
	d.ContextMemoMisses.Add(1)
	e.photoIdxOnce.Do(func() {
		e.photoIdx, e.photoIdxErr = diversify.NewPhotoIndex(e.photos, DefaultCellSize)
	})
	if e.photoIdxErr != nil {
		return nil, e.photoIdxErr
	}
	rs, maxD := e.photoIdx.StreetPhotos(e.net, st.ID, eps)
	if len(rs) == 0 {
		return nil, noMatch{fmt.Errorf("%w: street %q", ErrNoPhotos, st.Name)}
	}
	dctx, err := diversify.NewContext(rs, diversify.FreqFromPhotos(e.dict, rs), maxD, rho)
	if err != nil {
		return nil, err
	}
	evicted, delta := e.contexts.Put(key, dctx, int64(len(rs)))
	d.ContextMemoEvictions.Add(int64(evicted))
	d.ContextMemoPhotos.Add(delta)
	return dctx, nil
}
