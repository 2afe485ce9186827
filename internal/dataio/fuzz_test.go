package dataio

import (
	"bytes"
	"testing"
)

// The fuzz targets share one property: any input the readers accept must
// canonicalize. Writing the parsed value and reading it back must
// succeed, and a second write must reproduce the first byte-for-byte —
// the write∘read pass is idempotent. floats survive because fmtF uses
// strconv's shortest round-trippable form; keyword lists survive because
// interning normalizes and deduplicates on first read.

func FuzzReadNetwork(f *testing.F) {
	f.Add([]byte("High St,0,0,1,0,2,0\nLow St,0,1,1,1\n"))
	f.Add([]byte("\"a,b\",0.5,-0.25,1e-3,2\n"))
	f.Add([]byte("n,NaN,0,1,0\n"))
	f.Add([]byte("loop,0,0,0,0\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := ReadNetwork(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		var w1 bytes.Buffer
		if err := WriteNetwork(&w1, net); err != nil {
			t.Fatalf("write of accepted network failed: %v", err)
		}
		net2, err := ReadNetwork(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written network failed: %v\n%s", err, w1.Bytes())
		}
		if net2.NumStreets() != net.NumStreets() || net2.NumSegments() != net.NumSegments() {
			t.Fatalf("round-trip changed shape: %d/%d streets, %d/%d segments",
				net.NumStreets(), net2.NumStreets(), net.NumSegments(), net2.NumSegments())
		}
		var w2 bytes.Buffer
		if err := WriteNetwork(&w2, net2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write not idempotent:\nfirst:  %q\nsecond: %q", w1.Bytes(), w2.Bytes())
		}
	})
}

func FuzzReadPOIs(f *testing.F) {
	f.Add([]byte("0.5,1.5,1,shop;food\n"))
	f.Add([]byte("0,0,2.5,a; B ;a\n"))
	f.Add([]byte("1,2,0,\n"))
	f.Add([]byte("NaN,1e-300,-0,x\n")) // a NaN weight is refused; NaN rides on x
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadPOIs(bytes.NewReader(data), nil)
		if err != nil {
			t.Skip()
		}
		var w1 bytes.Buffer
		if err := WritePOIs(&w1, c); err != nil {
			t.Fatalf("write of accepted corpus failed: %v", err)
		}
		c2, err := ReadPOIs(bytes.NewReader(w1.Bytes()), nil)
		if err != nil {
			t.Fatalf("re-read of written corpus failed: %v\n%s", err, w1.Bytes())
		}
		if c2.Len() != c.Len() {
			t.Fatalf("round-trip changed POI count: %d → %d", c.Len(), c2.Len())
		}
		var w2 bytes.Buffer
		if err := WritePOIs(&w2, c2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write not idempotent:\nfirst:  %q\nsecond: %q", w1.Bytes(), w2.Bytes())
		}
	})
}

func FuzzReadPhotos(f *testing.F) {
	f.Add([]byte("0.5,1.5,sunset;bridge\n"))
	f.Add([]byte("0,0,\n"))
	f.Add([]byte("2,3,\"tag,comma\"\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadPhotos(bytes.NewReader(data), nil)
		if err != nil {
			t.Skip()
		}
		var w1 bytes.Buffer
		if err := WritePhotos(&w1, c); err != nil {
			t.Fatalf("write of accepted corpus failed: %v", err)
		}
		c2, err := ReadPhotos(bytes.NewReader(w1.Bytes()), nil)
		if err != nil {
			t.Fatalf("re-read of written corpus failed: %v\n%s", err, w1.Bytes())
		}
		if c2.Len() != c.Len() {
			t.Fatalf("round-trip changed photo count: %d → %d", c.Len(), c2.Len())
		}
		var w2 bytes.Buffer
		if err := WritePhotos(&w2, c2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write not idempotent:\nfirst:  %q\nsecond: %q", w1.Bytes(), w2.Bytes())
		}
	})
}
