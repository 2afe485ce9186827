package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile encodes the snapshot and writes it atomically: the bytes land
// in a temporary file in the target directory which is fsynced and then
// renamed over path, so readers never observe a half-written snapshot.
// The directory is fsynced after the rename (on Unix), so a crash cannot
// undo it once WriteFile has returned.
func WriteFile(path string, s *Snapshot) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("snapshot: syncing directory %s: %w", dir, err)
	}
	return nil
}

// Mapping owns the backing memory of an opened snapshot. The Snapshot's
// slab aliases this memory, and its POI corpus decodes from it on first
// use, so Close must not be called while the snapshot (or any index
// built over its slab) is still in use: touching the corpus after Close
// is the same misuse as querying the index.
type Mapping struct {
	data    []byte
	mmapped bool // a file mapping, not a heap copy read with os.ReadFile
}

// Close releases the mapping. It is safe to call on a nil Mapping and to
// call twice.
func (m *Mapping) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	data, mmapped := m.data, m.mmapped
	m.data = nil
	if !mmapped {
		return nil
	}
	return munmap(data)
}

// Open memory-maps the snapshot file (falling back to a plain read where
// mmap is unavailable), validates every section checksum and returns the
// decoded snapshot together with the mapping that backs it. Opening
// validates the POI section in place without decoding it (see Decode).
// The caller must keep the mapping open for as long as the snapshot's
// slab or POI corpus — or any index built from them — is in use, then
// Close it.
func Open(path string) (*Snapshot, *Mapping, error) {
	m, err := openMapping(path)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	s, err := Decode(m.data)
	if err != nil {
		m.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, m, nil
}
