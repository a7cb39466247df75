package stats

import (
	"math"
	"slices"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(7)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / float64(n); mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	r := NewRNG(2)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(3)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(4)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBootstrap(t *testing.T) {
	r := NewRNG(5)
	inBag, oob := r.Bootstrap(100)
	if len(inBag) != 100 {
		t.Fatalf("in-bag size %d", len(inBag))
	}
	inSet := make(map[int]bool)
	for _, v := range inBag {
		if v < 0 || v >= 100 {
			t.Fatalf("index out of range: %d", v)
		}
		inSet[v] = true
	}
	for _, v := range oob {
		if inSet[v] {
			t.Fatalf("OOB index %d also in bag", v)
		}
	}
	if len(inSet)+len(oob) != 100 {
		t.Fatal("in-bag distinct + OOB must partition the sample")
	}
	// Expected OOB fraction ≈ 1/e ≈ 0.368.
	if len(oob) < 20 || len(oob) > 55 {
		t.Fatalf("OOB size %d implausible", len(oob))
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(6)
	s := r.SampleWithoutReplacement(10, 4)
	if len(s) != 4 {
		t.Fatalf("size %d", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid sample %v", s)
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversample did not panic")
		}
	}()
	r.SampleWithoutReplacement(3, 4)
}

func TestTrainTestSplit(t *testing.T) {
	r := NewRNG(7)
	train, test := r.TrainTestSplit(100, 0.8)
	if len(train) != 80 || len(test) != 20 {
		t.Fatalf("split %d/%d", len(train), len(test))
	}
	seen := make(map[int]bool)
	for _, v := range append(append([]int{}, train...), test...) {
		if seen[v] {
			t.Fatal("overlap between train and test")
		}
		seen[v] = true
	}
}

// TestBootstrapIntoReusesScratch pins the scratch form the forest grows
// its trees with: one reseeded generator and one pair of buffers, left
// dirty from the previous draw, give every stream Bootstrap gives from a
// fresh generator, and the out-of-bag list is exactly its length.
func TestBootstrapIntoReusesScratch(t *testing.T) {
	var r RNG
	inBag := make([]int, 37)
	seen := make([]bool, 37)
	for i := range seen {
		seen[i] = i%3 == 0
	}
	for seed := uint64(0); seed < 20; seed++ {
		fresh := NewRNG(seed)
		wantIn, wantOOB := fresh.Bootstrap(len(inBag))
		r.Seed(seed)
		oob := r.BootstrapInto(inBag, seen)
		if !slices.Equal(inBag, wantIn) || !slices.Equal(oob, wantOOB) {
			t.Fatalf("seed %d: BootstrapInto = %v, %v; Bootstrap = %v, %v", seed, inBag, oob, wantIn, wantOOB)
		}
		if cap(oob) != len(oob) {
			t.Fatalf("seed %d: out-of-bag list has cap %d for %d indices", seed, cap(oob), len(oob))
		}
		if r.Uint64() != fresh.Uint64() {
			t.Fatalf("seed %d: streams diverge after the draw", seed)
		}
	}
	r.Seed(1)
	if oob := r.BootstrapInto([]int{0}, []bool{true}); oob != nil {
		t.Fatalf("a one-row bootstrap has no out-of-bag rows, got %v", oob)
	}
}
