package snapshot_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/snapshot"
)

// FuzzSnapshot throws arbitrary bytes at the decoder. The invariants:
// Decode never panics, every failure is one of the package's typed
// errors, and any input it accepts round-trips through Encode/Decode to
// a byte-identical canonical form.
func FuzzSnapshot(f *testing.F) {
	// Seed with a miniature world: the mutator needs inputs it can
	// afford to decode thousands of times per second.
	ds, err := datagen.Generate(datagen.Tiny(3))
	if err != nil {
		f.Fatal(err)
	}
	six, err := core.NewIndex(ds.Network, ds.POIs, core.IndexConfig{CellSize: 0.004})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := snapshot.Encode(&snapshot.Snapshot{
		Net: ds.Network, POIs: ds.POIs, Photos: ds.Photos, Slab: six.Slab(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte{})
	trunc := append([]byte(nil), valid[:200]...)
	f.Add(trunc)
	mut := append([]byte(nil), valid...)
	mut[len(mut)/3] ^= 0xff
	f.Add(mut)
	// Valid checksums around values the decoder must refuse.
	for _, c := range tamperedSnapshots(f) {
		f.Add(c.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := snapshot.Decode(data)
		if err != nil {
			if !isTypedErr(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		re, err := snapshot.Encode(dec)
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		dec2, err := snapshot.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		re2, err := snapshot.Encode(dec2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
