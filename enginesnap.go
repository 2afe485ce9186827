package soi

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// NewEngineFromSnapshot builds an engine from a prebuilt index snapshot
// (a .soi file written by soibuild or WriteSnapshot).
// The file is memory-mapped where the platform allows and the engine
// serves from the slab alone: the slab arrays come straight from the page
// cache, and startup decodes the network and the photos, validates the
// POI section in place, flattens the network and sorts the segment-length
// list — no grid, inverted index or cell↔segment map is built, and no
// POI is decoded; the slab is the one grid layout every reader is served
// from. The POI corpus decodes from the mapping only if something reads
// its records (the exact baseline, WriteSnapshot).
// Config.GridCellSize is ignored — the snapshot's slab fixes the cell size.
//
// The returned engine holds the mapping open; call Close when done with
// it, and not before its last query: the slab and the undecoded corpus
// read the mapping. Engines built by the other constructors need no Close.
func NewEngineFromSnapshot(path string, cfg Config) (*Engine, error) {
	snap, m, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	ix, err := core.NewIndexFromSlab(snap.Net, snap.POIs, snap.Slab)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("soi: rebuilding index from %s: %w", path, err)
	}
	eng := newEngineWithIndex(snap.Net, snap.POIs, snap.Photos, snap.POIs.Dict(), ix, cfg)
	eng.mapping = m
	return eng, nil
}

// WriteSnapshot persists the engine's dataset and compact index as a
// snapshot file, written atomically. An engine later opened from the
// file with NewEngineFromSnapshot answers every query bit-identically.
func (e *Engine) WriteSnapshot(path string) error {
	if e.ing != nil {
		return fmt.Errorf("soi: live engines persist snapshots through compaction (LiveConfig.SnapshotPath)")
	}
	return snapshot.WriteFile(path, &snapshot.Snapshot{
		Net:    e.net,
		POIs:   e.pois,
		Photos: e.photos,
		Slab:   e.index.Slab(),
	})
}

// Close releases the file mapping behind a snapshot-loaded engine and,
// for a live engine, stops the background publisher/compactor. It must
// not be called while queries are still in flight. For plain in-memory
// engines it is a no-op.
func (e *Engine) Close() error {
	if e.ing != nil {
		if err := e.ing.Close(); err != nil {
			return err
		}
	}
	if e.mapping == nil {
		return nil
	}
	m := e.mapping
	e.mapping = nil
	return m.Close()
}
