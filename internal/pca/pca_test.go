package pca

import (
	"math"
	"testing"
	"testing/quick"

	"blackforest/internal/stats"
)

func eq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// correlated2D generates points stretched along the (1,1) diagonal.
func correlated2D(n int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	var out [][]float64
	for i := 0; i < n; i++ {
		base := rng.NormFloat64() * 5
		out = append(out, []float64{
			base + rng.NormFloat64()*0.3,
			base + rng.NormFloat64()*0.3,
		})
	}
	return out
}

func TestFitDiagonalStructure(t *testing.T) {
	x := correlated2D(200, 1)
	r, err := Fit(x, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	shares := r.ExplainedVariance()
	if shares[0] < 0.95 {
		t.Fatalf("PC1 explains %.2f, want > 0.95 for near-collinear data", shares[0])
	}
	// PC1 direction ≈ (±1/√2, ±1/√2), components equal in magnitude.
	l0, l1 := r.Loadings.At(0, 0), r.Loadings.At(1, 0)
	if !eq(math.Abs(l0), math.Abs(l1), 0.05) {
		t.Fatalf("PC1 loadings not symmetric: %v %v", l0, l1)
	}
	if math.Signbit(l0) != math.Signbit(l1) {
		t.Fatal("PC1 loadings should share sign for positively correlated data")
	}
}

func TestExplainedVarianceSumsToOne(t *testing.T) {
	x := correlated2D(100, 2)
	r, err := Fit(x, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range r.ExplainedVariance() {
		sum += s
	}
	if !eq(sum, 1, 1e-9) {
		t.Fatalf("variance shares sum to %v", sum)
	}
}

func TestComponentsFor(t *testing.T) {
	x := correlated2D(100, 3)
	r, _ := Fit(x, []string{"a", "b"})
	if r.ComponentsFor(0.9) != 1 {
		t.Fatalf("near-collinear data needs %d components for 90%%", r.ComponentsFor(0.9))
	}
	if r.ComponentsFor(1.0) != 2 {
		t.Fatal("full variance needs all components")
	}
}

func TestScoresUncorrelated(t *testing.T) {
	x := correlated2D(300, 4)
	r, _ := Fit(x, []string{"a", "b"})
	s0 := r.Scores.Col(0)
	s1 := r.Scores.Col(1)
	if c := stats.Correlation(s0, s1); math.Abs(c) > 0.05 {
		t.Fatalf("component scores correlated: %v", c)
	}
}

func TestComponentLoadingsSorted(t *testing.T) {
	x := correlated2D(100, 6)
	r, _ := Fit(x, []string{"a", "b"})
	ld, err := r.ComponentLoadings(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ld) != 2 {
		t.Fatalf("loadings count %d", len(ld))
	}
	if math.Abs(ld[0].Value) < math.Abs(ld[1].Value) {
		t.Fatal("loadings not sorted by |value|")
	}
	if _, err := r.ComponentLoadings(5); err == nil {
		t.Fatal("bad component index accepted")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Fit([][]float64{{1, 2}}, []string{"a", "b"}); err == nil {
		t.Fatal("single observation accepted")
	}
	if _, err := Fit([][]float64{{1}, {2}}, []string{"a", "b"}); err == nil {
		t.Fatal("name mismatch accepted")
	}
}

// Property: loadings matrix columns are orthonormal.
func TestLoadingsOrthonormal(t *testing.T) {
	f := func(seed uint64) bool {
		x := correlated2D(60, seed)
		r, err := Fit(x, []string{"a", "b"})
		if err != nil {
			return false
		}
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				var dot float64
				for k := 0; k < 2; k++ {
					dot += r.Loadings.At(k, a) * r.Loadings.At(k, b)
				}
				want := 0.0
				if a == b {
					want = 1
				}
				if !eq(dot, want, 1e-8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
