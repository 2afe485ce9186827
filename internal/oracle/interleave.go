package oracle

// Interleaved differential mode: the harness's answer to "is the
// epoch-based ingest path exactly correct under concurrency?". A writer
// streams the second half of a seeded world's POIs through an
// ingest.Ingestor in rounds — publishing an epoch per round and
// compacting at the end — while query goroutines hammer an
// epoch-threaded engine.Executor. Every answer carries the epoch it was
// evaluated at; the corpus of every epoch is a known prefix of the
// world's POI list, so each answer is cross-checked bit-exactly
// (Float64bits, via Equal) against the brute-force oracle rebuilt over
// that prefix. After compaction every query runs once more on the settled
// final epoch, against the oracle over the full corpus.

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// InterleaveOptions configures one interleaved differential run.
type InterleaveOptions struct {
	// Rounds is the number of publish rounds the writer performs; 0
	// means 4. Each round folds an equal share of the streamed half.
	Rounds int
	// QueryWorkers is the number of concurrent query goroutines; 0
	// means 4.
	QueryWorkers int
	// CellSize is the index cell size; 0 means 0.0005 (the paper's ε).
	CellSize float64
}

func (o InterleaveOptions) rounds() int {
	if o.Rounds > 0 {
		return o.Rounds
	}
	return 4
}

func (o InterleaveOptions) queryWorkers() int {
	if o.QueryWorkers > 0 {
		return o.QueryWorkers
	}
	return 4
}

func (o InterleaveOptions) cellSize() float64 {
	if o.CellSize > 0 {
		return o.CellSize
	}
	return 0.0005
}

// InterleaveReport summarizes one interleaved run for progress output.
type InterleaveReport struct {
	// Rounds is the number of publishes the writer performed.
	Rounds int
	// FinalEpoch is the compacted epoch's sequence number.
	FinalEpoch uint64
	// Answers is how many query answers were cross-checked.
	Answers int
	// Streamed is how many POIs arrived through the delta log.
	Streamed int
}

// DiffInterleaved runs the interleaved differential check over one
// matrix cell. Divergences carry the epoch they were observed at in
// their Impl tag.
func DiffInterleaved(c SeedConfig, opt InterleaveOptions) ([]Divergence, InterleaveReport, error) {
	w, err := c.BuildWorld()
	if err != nil {
		return nil, InterleaveReport{}, fmt.Errorf("oracle: building world (%s): %w", c.Label(), err)
	}
	net, _, _, _, err := w.Build()
	if err != nil {
		return nil, InterleaveReport{}, err
	}
	rounds := opt.rounds()
	half := len(w.POIs) / 2
	base, streamed := w.POIs[:half], w.POIs[half:]

	ing, err := ingest.New(net, specsToDeltas(base), ingest.Config{CellSize: opt.cellSize()})
	if err != nil {
		return nil, InterleaveReport{}, err
	}
	defer ing.Close()
	exec := engine.New(nil, engine.Config{Source: ing, Workers: opt.queryWorkers()})

	// Epoch seq → corpus prefix length. Sequences are dense by
	// construction: epoch 1 is the base, publish r installs 1+r, the
	// final compaction installs rounds+2 over the full corpus.
	chunk := (len(streamed) + rounds - 1) / rounds
	if chunk == 0 {
		chunk = 1
	}
	prefixEnd := map[uint64]int{1: half}
	var chunks [][]POISpec
	for pos := 0; pos < len(streamed); pos += chunk {
		end := pos + chunk
		if end > len(streamed) {
			end = len(streamed)
		}
		chunks = append(chunks, streamed[pos:end])
		prefixEnd[uint64(len(chunks))+1] = half + end
	}
	rounds = len(chunks) // short worlds may not fill every round
	if rounds == 0 {
		return nil, InterleaveReport{}, fmt.Errorf("oracle: world (%s) too small to stream: %d POIs", c.Label(), len(w.POIs))
	}
	prefixEnd[uint64(rounds)+2] = len(w.POIs)

	// The oracle corpus and per-query reference answer for each epoch,
	// built on first use and memoized — many answers share an epoch.
	var oracleMu sync.Mutex
	corpora := map[uint64]*poi.Corpus{}
	type refKey struct {
		seq uint64
		qi  int
	}
	refs := map[refKey][]core.StreetResult{}
	refAnswer := func(seq uint64, qi int) ([]core.StreetResult, error) {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		if want, ok := refs[refKey{seq, qi}]; ok {
			return want, nil
		}
		corpus, ok := corpora[seq]
		if !ok {
			end, known := prefixEnd[seq]
			if !known {
				return nil, fmt.Errorf("answer at unexpected epoch %d", seq)
			}
			pb := poi.NewBuilder(vocab.NewDictionary())
			for _, p := range w.POIs[:end] {
				pb.AddWeighted(p.Loc, p.Keywords, specWeight(p))
			}
			corpus = pb.Build()
			corpora[seq] = corpus
		}
		want, err := TopK(net, corpus, c.Queries[qi])
		if err != nil {
			return nil, err
		}
		refs[refKey{seq, qi}] = want
		return want, nil
	}

	var divMu sync.Mutex
	var divs []Divergence
	answers := 0
	check := func(qi int, res engine.Result) error {
		if res.Err != nil {
			return fmt.Errorf("query %d at epoch %d: %w", qi, res.Epoch, res.Err)
		}
		want, err := refAnswer(res.Epoch, qi)
		if err != nil {
			return err
		}
		divMu.Lock()
		defer divMu.Unlock()
		answers++
		if msg := Equal(res.Streets, want); msg != "" {
			divs = append(divs, Divergence{
				Impl:     fmt.Sprintf("ingest/interleaved@epoch=%d", res.Epoch),
				CellSize: opt.cellSize(),
				Query:    c.Queries[qi],
				Detail:   msg,
			})
		}
		return nil
	}

	// Query goroutines sweep the matrix grid continuously while the
	// writer publishes; the first error (not divergence) stops the run.
	stop := make(chan struct{})
	errc := make(chan error, opt.queryWorkers())
	var wg sync.WaitGroup
	for g := 0; g < opt.queryWorkers(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for qi := range c.Queries {
					select {
					case <-stop:
						return
					default:
					}
					if err := check(qi, exec.Do(c.Queries[qi])); err != nil {
						select {
						case errc <- err:
						default:
						}
						return
					}
				}
			}
		}()
	}

	var runErr error
	for _, ch := range chunks {
		if _, err := ing.AddBatch(specsToDeltas(ch)); err != nil {
			runErr = err
			break
		}
		if _, _, err := ing.Publish(); err != nil {
			runErr = err
			break
		}
	}
	if runErr == nil {
		if _, _, err := ing.Compact(); err != nil {
			runErr = err
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		if runErr == nil {
			runErr = err
		}
	default:
	}
	if runErr != nil {
		return divs, InterleaveReport{}, runErr
	}

	// Post-compaction pass: every query once more on the settled final
	// epoch, checked against the oracle over the full corpus.
	finalSeq := uint64(rounds) + 2
	for qi, q := range c.Queries {
		res := exec.Do(q)
		if res.Err != nil {
			return divs, InterleaveReport{}, fmt.Errorf("post-compaction query %d: %w", qi, res.Err)
		}
		if res.Epoch != finalSeq {
			divs = append(divs, Divergence{
				Impl:     "ingest/interleaved@final",
				CellSize: opt.cellSize(),
				Query:    q,
				Detail:   fmt.Sprintf("post-compaction answer at epoch %d, want %d", res.Epoch, finalSeq),
			})
			continue
		}
		if err := check(qi, res); err != nil {
			return divs, InterleaveReport{}, err
		}
	}
	return divs, InterleaveReport{
		Rounds:     rounds,
		FinalEpoch: finalSeq,
		Answers:    answers,
		Streamed:   len(streamed),
	}, nil
}

func specsToDeltas(specs []POISpec) []ingest.Delta {
	out := make([]ingest.Delta, len(specs))
	for i, p := range specs {
		out[i] = ingest.Delta{Loc: p.Loc, Keywords: p.Keywords, Weight: specWeight(p)}
	}
	return out
}
