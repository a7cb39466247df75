package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func eq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean not 0")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !eq(Variance(xs), 32.0/7, 1e-12) {
		t.Fatalf("variance %v", Variance(xs))
	}
	if !eq(StdDev(xs), math.Sqrt(32.0/7), 1e-12) {
		t.Fatal("stddev wrong")
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("singleton variance not 0")
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if !eq(Correlation(xs, ys), 1, 1e-12) {
		t.Fatal("perfect correlation not 1")
	}
	neg := []float64{10, 8, 6, 4, 2}
	if !eq(Correlation(xs, neg), -1, 1e-12) {
		t.Fatal("perfect anticorrelation not -1")
	}
	konst := []float64{3, 3, 3, 3, 3}
	if Correlation(xs, konst) != 0 {
		t.Fatal("constant series correlation not 0")
	}
	if !eq(Covariance(xs, ys), 5, 1e-12) {
		t.Fatalf("covariance %v", Covariance(xs, ys))
	}
}

func TestCovariancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Covariance([]float64{1}, []float64{1, 2})
}

func TestMSEMAERSquared(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 5}
	if !eq(MSE(pred, truth), 4.0/3, 1e-12) {
		t.Fatal("MSE wrong")
	}
	if !eq(RSquared(truth, truth), 1, 1e-12) {
		t.Fatal("perfect R² not 1")
	}
	if RSquared([]float64{0, 0, 0}, []float64{5, 5, 5}) != 0 {
		t.Fatal("constant-truth R² not 0")
	}
}

func TestMedianAbsPctError(t *testing.T) {
	pred := []float64{110, 90, 100}
	truth := []float64{100, 100, 100}
	if !eq(MedianAbsPctError(pred, truth), 0.1, 1e-12) {
		t.Fatalf("got %v", MedianAbsPctError(pred, truth))
	}
	if MedianAbsPctError([]float64{1}, []float64{0}) != 0 {
		t.Fatal("zero-truth entries should be skipped")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Quantile(xs, 0.5) != 2 {
		t.Fatal("median wrong")
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 3 {
		t.Fatal("extremes wrong")
	}
	if !eq(Quantile([]float64{1, 2}, 0.5), 1.5, 1e-12) {
		t.Fatal("interpolation wrong")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile not 0")
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 2}
	if Min(xs) != -1 || Max(xs) != 3 {
		t.Fatal("min/max wrong")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max wrong")
	}
}

func TestStandardize(t *testing.T) {
	z, mean, sd := Standardize([]float64{2, 4, 6})
	if mean != 4 || !eq(sd, 2, 1e-12) {
		t.Fatalf("mean=%v sd=%v", mean, sd)
	}
	if !eq(Mean(z), 0, 1e-12) || !eq(StdDev(z), 1, 1e-12) {
		t.Fatal("standardized series not (0,1)")
	}
	zc, _, sdc := Standardize([]float64{5, 5})
	if sdc != 1 || zc[0] != 0 {
		t.Fatal("constant series handling wrong")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !eq(got[i], want[i], 1e-12) {
			t.Fatalf("linspace %v", got)
		}
	}
	if len(Linspace(0, 1, 0)) != 0 {
		t.Fatal("n=0 not empty")
	}
	if got := Linspace(2, 9, 1); len(got) != 1 || got[0] != 2 {
		t.Fatal("n=1 wrong")
	}
}

func TestSumSquaredDev(t *testing.T) {
	if !eq(SumSquaredDev([]float64{1, 2, 3}), 2, 1e-12) {
		t.Fatal("TSS wrong")
	}
}

// Property: correlation is within [-1, 1] and symmetric.
func TestCorrelationProperties(t *testing.T) {
	f := func(a, b [8]float64) bool {
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true
			}
			if math.Abs(a[i]) > 1e8 || math.Abs(b[i]) > 1e8 {
				return true
			}
		}
		r := Correlation(a[:], b[:])
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		return eq(r, Correlation(b[:], a[:]), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
