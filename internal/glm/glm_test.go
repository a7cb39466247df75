package glm

import (
	"math"
	"strings"
	"testing"

	"blackforest/internal/stats"
)

func eq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGaussianExactRecovery(t *testing.T) {
	// y = 2 + 3a − 1.5b, noiseless.
	rng := stats.NewRNG(1)
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{a, b})
		y = append(y, 2+3*a-1.5*b)
	}
	m, err := Fit(x, y, []string{"a", "b"}, Gaussian)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(m.Coef[0], 2, 1e-6) || !eq(m.Coef[1], 3, 1e-6) || !eq(m.Coef[2], -1.5, 1e-6) {
		t.Fatalf("coefficients %v", m.Coef)
	}
	if m.Deviance > 1e-10 {
		t.Fatalf("residual deviance %v on exact data", m.Deviance)
	}
	if m.RSquared(x, y) < 1-1e-9 {
		t.Fatal("R² not 1 on exact data")
	}
}

func TestGaussianWithNoise(t *testing.T) {
	rng := stats.NewRNG(2)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := rng.Float64() * 10
		x = append(x, []float64{a})
		y = append(y, 5+2*a+rng.NormFloat64())
	}
	m, err := Fit(x, y, []string{"a"}, Gaussian)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(m.Coef[1], 2, 0.1) {
		t.Fatalf("slope %v", m.Coef[1])
	}
	if m.NullDev <= m.Deviance {
		t.Fatal("null deviance should exceed residual deviance")
	}
}

func TestPoissonLogLink(t *testing.T) {
	// E[y] = exp(0.5 + 0.3a).
	rng := stats.NewRNG(3)
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a := rng.Float64() * 5
		mu := math.Exp(0.5 + 0.3*a)
		// Approximate Poisson draw by rounding mu + noise·√mu.
		draw := math.Round(mu + rng.NormFloat64()*math.Sqrt(mu))
		if draw < 0 {
			draw = 0
		}
		x = append(x, []float64{a})
		y = append(y, draw)
	}
	m, err := Fit(x, y, []string{"a"}, Poisson)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(m.Coef[0], 0.5, 0.15) || !eq(m.Coef[1], 0.3, 0.05) {
		t.Fatalf("poisson coefficients %v", m.Coef)
	}
	if m.Iterations < 2 {
		t.Fatal("IRLS should iterate")
	}
}

func TestPoissonRejectsNegative(t *testing.T) {
	if _, err := Fit([][]float64{{1}, {2}, {3}}, []float64{1, -1, 2}, []string{"a"}, Poisson); err == nil {
		t.Fatal("negative poisson response accepted")
	}
}

func TestGammaLogLink(t *testing.T) {
	rng := stats.NewRNG(4)
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		a := rng.Float64() * 3
		mu := math.Exp(1 + 0.5*a)
		y = append(y, mu*math.Exp(rng.NormFloat64()*0.1))
		x = append(x, []float64{a})
	}
	m, err := Fit(x, y, []string{"a"}, GammaLog)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(m.Coef[1], 0.5, 0.05) {
		t.Fatalf("gamma slope %v", m.Coef[1])
	}
}

func TestGammaRejectsNonPositive(t *testing.T) {
	if _, err := Fit([][]float64{{1}, {2}, {3}}, []float64{1, 0, 2}, []string{"a"}, GammaLog); err == nil {
		t.Fatal("zero gamma response accepted")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, nil, Gaussian); err == nil {
		t.Fatal("empty set accepted")
	}
	x := [][]float64{{1}, {2}, {3}}
	if _, err := Fit(x, []float64{1, 2}, []string{"a"}, Gaussian); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Fit(x, []float64{1, 2, 3}, []string{"a", "b"}, Gaussian); err == nil {
		t.Fatal("name mismatch accepted")
	}
	if _, err := Fit([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}, []string{"a", "b"}, Gaussian); err == nil {
		t.Fatal("underdetermined system accepted")
	}
	if _, err := Fit(x, []float64{1, 2, 3}, []string{"a"}, Family(99)); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestFitRejectsRaggedRows: a training row shorter or longer than the
// first is an error that names the row, not a panic or a silent fit.
func TestFitRejectsRaggedRows(t *testing.T) {
	for name, bad := range map[string][]float64{"short": {4}, "long": {4, 5, 6}} {
		x := [][]float64{{1, 2}, {2, 1}, {3, 3}, bad, {5, 4}, {6, 6}}
		y := []float64{1, 2, 3, 4, 5, 6}
		_, err := Fit(x, y, []string{"a", "b"}, Gaussian)
		if err == nil || !strings.Contains(err.Error(), "row 3") {
			t.Errorf("%s row: error %v, want one naming row 3", name, err)
		}
	}
}

func TestCollinearFallsBackToRidge(t *testing.T) {
	// Duplicate predictor columns: OLS is rank-deficient; the ridge
	// fallback must still produce a usable fit.
	var x [][]float64
	var y []float64
	for i := 0; i < 20; i++ {
		v := float64(i)
		x = append(x, []float64{v, v})
		y = append(y, 4*v+1)
	}
	m, err := Fit(x, y, []string{"a", "adup"}, Gaussian)
	if err != nil {
		t.Fatal(err)
	}
	if m.RSquared(x, y) < 0.999 {
		t.Fatalf("ridge fallback fit poor: R²=%v", m.RSquared(x, y))
	}
}

func TestPredictPanicsOnWidth(t *testing.T) {
	m, err := Fit([][]float64{{1}, {2}, {3}}, []float64{1, 2, 3}, []string{"a"}, Gaussian)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Predict([]float64{1, 2})
}

func TestFamilyString(t *testing.T) {
	if Gaussian.String() != "gaussian" || Poisson.String() != "poisson(log)" || GammaLog.String() != "Gamma(log)" {
		t.Fatal("family names wrong")
	}
	if Family(9).String() == "" {
		t.Fatal("unknown family string empty")
	}
}

func TestModelString(t *testing.T) {
	m, _ := Fit([][]float64{{1}, {2}, {3}}, []float64{2, 4, 6}, []string{"a"}, Gaussian)
	if s := m.String(); s == "" {
		t.Fatal("empty model string")
	}
}
