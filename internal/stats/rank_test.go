package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestRecallAtK(t *testing.T) {
	ranked := []string{"a", "b", "c", "d"}
	rel := []string{"b", "d", "z"}
	if got := RecallAtK(ranked, rel, 2); !almostEq(got, 1.0/3) {
		t.Errorf("recall@2 = %v", got)
	}
	if got := RecallAtK(ranked, rel, 4); !almostEq(got, 2.0/3) {
		t.Errorf("recall@4 = %v", got)
	}
	if got := RecallAtK(ranked, rel, 99); !almostEq(got, 2.0/3) {
		t.Errorf("recall@99 = %v", got)
	}
	if got := RecallAtK(ranked, nil, 2); got != 0 {
		t.Errorf("recall with empty relevant = %v", got)
	}
}

func TestNDCGPerfect(t *testing.T) {
	grades := map[string]float64{"a": 3, "b": 2, "c": 1}
	if got := NDCGAtK([]string{"a", "b", "c"}, grades, 3); !almostEq(got, 1) {
		t.Errorf("perfect nDCG = %v", got)
	}
}

func TestNDCGWorstOrder(t *testing.T) {
	grades := map[string]float64{"a": 3, "b": 2, "c": 1}
	rev := NDCGAtK([]string{"c", "b", "a"}, grades, 3)
	if rev >= 1 || rev <= 0 {
		t.Errorf("reversed nDCG = %v", rev)
	}
	// Hand-computed: DCG = 1/log2(2) + 2/log2(3) + 3/log2(4) = 1 + 1.26186 + 1.5
	// IDCG = 3 + 2/log2(3) + 1/2 = 4.76186
	want := (1 + 2/math.Log2(3) + 1.5) / (3 + 2/math.Log2(3) + 0.5)
	if !almostEq(rev, want) {
		t.Errorf("reversed nDCG = %v, want %v", rev, want)
	}
}

func TestNDCGEdgeCases(t *testing.T) {
	if got := NDCGAtK([]string{"x"}, map[string]float64{}, 3); got != 0 {
		t.Errorf("empty grades nDCG = %v", got)
	}
	if got := NDCGAtK(nil, map[string]float64{"a": 1}, 3); got != 0 {
		t.Errorf("empty ranking nDCG = %v", got)
	}
	// Unknown items contribute zero gain.
	grades := map[string]float64{"a": 1}
	if got := NDCGAtK([]string{"z", "a"}, grades, 2); got >= 1 || got <= 0 {
		t.Errorf("partial nDCG = %v", got)
	}
}

func TestKendallTau(t *testing.T) {
	if got := KendallTau([]string{"a", "b", "c"}, []string{"a", "b", "c"}); !almostEq(got, 1) {
		t.Errorf("identical tau = %v", got)
	}
	if got := KendallTau([]string{"a", "b", "c"}, []string{"c", "b", "a"}); !almostEq(got, -1) {
		t.Errorf("reversed tau = %v", got)
	}
	// One swap among three: 2 concordant, 1 discordant → 1/3.
	if got := KendallTau([]string{"a", "b", "c"}, []string{"b", "a", "c"}); !almostEq(got, 1.0/3) {
		t.Errorf("one-swap tau = %v", got)
	}
	// Disjoint rankings share nothing.
	if got := KendallTau([]string{"a"}, []string{"b"}); got != 0 {
		t.Errorf("disjoint tau = %v", got)
	}
	// Only common items count.
	if got := KendallTau([]string{"a", "x", "b"}, []string{"a", "b", "y"}); !almostEq(got, 1) {
		t.Errorf("common-subset tau = %v", got)
	}
}

// Property: tau is antisymmetric under reversal of one argument, and
// bounded in [-1, 1].
func TestKendallTauProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	items := []string{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 200; trial++ {
		a := append([]string(nil), items...)
		b := append([]string(nil), items...)
		rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		tau := KendallTau(a, b)
		if tau < -1-1e-12 || tau > 1+1e-12 {
			t.Fatalf("tau out of range: %v", tau)
		}
		rev := append([]string(nil), b...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		if !almostEq(KendallTau(a, rev), -tau) {
			t.Fatalf("tau not antisymmetric: %v vs %v", tau, KendallTau(a, rev))
		}
		// Symmetry in arguments.
		if !almostEq(KendallTau(b, a), tau) {
			t.Fatalf("tau not symmetric")
		}
	}
}
