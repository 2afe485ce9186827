package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/snapshot"
)

// ManifestVersion is the on-disk manifest format version.
const ManifestVersion = 1

// ManifestShard describes one shard's snapshot file and its local→global
// id maps within a partitioned world.
type ManifestShard struct {
	// File is the shard snapshot's path, relative to the manifest.
	File  string `json:"file"`
	TileX int    `json:"tile_x"`
	TileY int    `json:"tile_y"`
	// Streets[local] / Segments[local] are the global ids, strictly
	// ascending (the property that preserves tie-breaks).
	Streets  []network.StreetID  `json:"streets"`
	Segments []network.SegmentID `json:"segments"`
}

// Manifest is the JSON sidecar tying a set of per-shard .soi snapshots
// back into one queryable world. The global bounds and halo are part of
// the format: the bounds pin every shard index to the same cell
// lattice, and the halo is the largest ε the partition answers exactly.
type Manifest struct {
	Version  int             `json:"version"`
	TilesX   int             `json:"tiles_x"`
	TilesY   int             `json:"tiles_y"`
	Halo     float64         `json:"halo"`
	CellSize float64         `json:"cell_size"`
	Bounds   [4]float64      `json:"bounds"` // min_x, min_y, max_x, max_y
	Shards   []ManifestShard `json:"shards"`
}

// WriteSnapshots persists a partitioned world: one snapshot file per
// shard next to the manifest at manifestPath. Shard files are named
// <base>.shard<N>.soi where <base> strips manifestPath's extension. The
// shard files are encoded and written concurrently; the manifest is
// written after all of them, and every file goes through
// snapshot.WriteAtomic, so no reader sees a torn manifest or shard file.
func WriteSnapshots(manifestPath string, w *World) error {
	base := strings.TrimSuffix(filepath.Base(manifestPath), filepath.Ext(manifestPath))
	dir := filepath.Dir(manifestPath)
	m := Manifest{
		Version:  ManifestVersion,
		TilesX:   w.TilesX,
		TilesY:   w.TilesY,
		Halo:     w.Halo,
		CellSize: w.CellSize,
		Bounds:   [4]float64{w.Bounds.MinX, w.Bounds.MinY, w.Bounds.MaxX, w.Bounds.MaxY},
		Shards:   make([]ManifestShard, len(w.Shards)),
	}
	errs := make([]error, len(w.Shards))
	parallel(len(w.Shards), func(i int) {
		s := w.Shards[i]
		file := fmt.Sprintf("%s.shard%d.soi", base, s.ID)
		snap := &snapshot.Snapshot{
			Net:  s.Net,
			POIs: s.POIs,
			// Shards serve k-SOI only; an empty photo corpus sharing the
			// dictionary satisfies the container's completeness contract.
			Photos: photo.NewBuilder(s.POIs.Dict()).Build(),
			Slab:   s.Index.Slab(),
		}
		if err := snapshot.WriteFile(filepath.Join(dir, file), snap); err != nil {
			errs[i] = fmt.Errorf("shard: writing shard %d: %w", s.ID, err)
			return
		}
		m.Shards[i] = ManifestShard{
			File:     file,
			TileX:    s.TileX,
			TileY:    s.TileY,
			Streets:  s.Streets,
			Segments: s.Segments,
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return snapshot.WriteAtomic(manifestPath, append(blob, '\n'))
}

// LoadManifest parses a manifest without opening any shard snapshots —
// what a coordinator serving over remote shards needs: the partition
// constants (bounds, halo, cell size) and the shard count. Its shard
// entries are left zero; LoadShard decodes the one it serves.
func LoadManifest(manifestPath string) (*Manifest, error) {
	return loadManifest(manifestPath, -1)
}

// loadManifest parses a manifest, decoding the entry of shard only (none
// when only is negative) and leaving the others zero: each soishard
// process reads its own id maps, never its peers'.
func loadManifest(manifestPath string, only int) (*Manifest, error) {
	blob, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	var f struct {
		Manifest
		Shards []json.RawMessage `json:"shards"`
	}
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest %s: %w", manifestPath, err)
	}
	m := f.Manifest
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("shard: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if len(f.Shards) == 0 {
		return nil, fmt.Errorf("shard: manifest %s lists no shards", manifestPath)
	}
	m.Shards = make([]ManifestShard, len(f.Shards))
	if only >= 0 && only < len(f.Shards) {
		if err := json.Unmarshal(f.Shards[only], &m.Shards[only]); err != nil {
			return nil, fmt.Errorf("shard: parsing manifest %s shard %d: %w", manifestPath, only, err)
		}
	}
	return &m, nil
}

// LoadShard mmaps exactly one shard of a partitioned world — the
// cross-process serving path, where each soishard process owns a single
// tile. It returns the shard, the parsed manifest (for the
// partition-level constants and the shard count; of its entries only
// shard id's is decoded) and a closer releasing the mapping. The
// shard's index and its POI corpus, which stays undecoded unless its
// records are read, both read the mapping: close it after their last use.
func LoadShard(manifestPath string, id int) (*Shard, *Manifest, io.Closer, error) {
	m, err := loadManifest(manifestPath, id)
	if err != nil {
		return nil, nil, nil, err
	}
	if id < 0 || id >= len(m.Shards) {
		return nil, nil, nil, fmt.Errorf("shard: shard %d out of range [0,%d)", id, len(m.Shards))
	}
	ms := m.Shards[id]
	snap, mapping, err := snapshot.Open(filepath.Join(filepath.Dir(manifestPath), ms.File))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("shard: opening shard %d (%s): %w", id, ms.File, err)
	}
	ix, err := core.NewIndexFromSlab(snap.Net, snap.POIs, snap.Slab)
	if err != nil {
		mapping.Close()
		return nil, nil, nil, fmt.Errorf("shard: rebuilding shard %d index: %w", id, err)
	}
	if snap.Net.NumStreets() != len(ms.Streets) || snap.Net.NumSegments() != len(ms.Segments) {
		mapping.Close()
		return nil, nil, nil, fmt.Errorf("shard: shard %d manifest maps %d streets/%d segments, snapshot has %d/%d",
			id, len(ms.Streets), len(ms.Segments), snap.Net.NumStreets(), snap.Net.NumSegments())
	}
	return &Shard{
		ID:       id,
		TileX:    ms.TileX,
		TileY:    ms.TileY,
		Net:      snap.Net,
		POIs:     snap.POIs,
		Index:    ix,
		Streets:  ms.Streets,
		Segments: ms.Segments,
	}, m, mapping, nil
}
