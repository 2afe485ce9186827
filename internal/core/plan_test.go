package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// planHash is one FNV-64a over every array of an ε-plan, in field order:
// Cε(ℓ) (segCellOff, segCell), Lε (cellSegOff, cellSeg) and SL2.
func planHash(p *slabPlan) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range p.segCellOff {
		put(v)
	}
	for _, v := range p.segCell {
		put(uint32(v))
	}
	for _, v := range p.cellSegOff {
		put(v)
	}
	for _, v := range p.cellSeg {
		put(v)
	}
	for _, v := range p.sl2 {
		put(uint32(v))
	}
	return h.Sum64()
}

// TestGoldenPlans pins the ε-plans of Berlin 0.1 at the serving sweep's
// three ε and at the shard halo (0.0012), cell for cell: a change to the
// cell predicate or to how a plan is assembled must pass with the
// literals as they are.
func TestGoldenPlans(t *testing.T) {
	ix, _ := sweepWorld(t, 0.1)
	want := []struct {
		eps  float64
		hash uint64
	}{
		{0.00025, 0x9846d3f067fc2dd2},
		{0.0005, 0x6f8745b8ee7496fd},
		{0.001, 0xf3a7f0b58e35fb42},
		{0.0012, 0x1cc213bbe0f26383},
	}
	for _, w := range want {
		if got := planHash(ix.plan(w.eps)); got != w.hash {
			t.Errorf("ε=%g: plan hash %#x, want %#x", w.eps, got, w.hash)
		}
	}
}

// BenchmarkPlanBuild builds the serving sweep's three ε-plans of Berlin
// 0.25 from scratch, as a fresh snapshot-opened process or a new live
// epoch does on its first query at each ε.
func BenchmarkPlanBuild(b *testing.B) {
	ix, _ := sweepWorld(b, 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eps := range sweepEps {
			ix.mu.Lock()
			delete(ix.plans, eps)
			ix.mu.Unlock()
			ix.plan(eps)
		}
	}
}
