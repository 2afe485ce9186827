package ingest

// RetiredEpochs exposes the retired-epoch gauge for tests outside the
// package.
func (ing *Ingestor) RetiredEpochs() int64 { return ing.retired.Load() }
