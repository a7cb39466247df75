package mars

import (
	"math"
	"strings"
	"testing"

	"blackforest/internal/stats"
)

// NumTerms returns the number of basis terms including the intercept.
func (m *Model) NumTerms() int { return len(m.terms) }

func eq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPiecewiseLinearRecovery(t *testing.T) {
	// y = 3·max(0, x−5) + 1: a single hinge, exactly MARS's basis.
	var x [][]float64
	var y []float64
	for i := 0; i <= 20; i++ {
		v := float64(i) / 2
		x = append(x, []float64{v})
		y = append(y, 3*math.Max(0, v-5)+1)
	}
	m, err := Fit(x, y, []string{"x"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainR2 < 0.999 {
		t.Fatalf("hinge recovery R² %v", m.TrainR2)
	}
	if !eq(m.Predict([]float64{2}), 1, 0.05) {
		t.Fatalf("flat region: %v", m.Predict([]float64{2}))
	}
	if !eq(m.Predict([]float64{9}), 13, 0.2) {
		t.Fatalf("sloped region: %v", m.Predict([]float64{9}))
	}
}

func TestPeakedCurve(t *testing.T) {
	// The shape that broke the GLM counter models: rise then fall.
	sizes := []float64{32, 64, 128, 256, 512, 1024, 2048}
	vals := []float64{0.65, 1.87, 4.89, 4.54, 1.71, 0.87, 0.44}
	var x [][]float64
	var y []float64
	for r := 0; r < 3; r++ {
		for i := range sizes {
			x = append(x, []float64{sizes[i]})
			y = append(y, vals[i])
		}
	}
	m, err := Fit(x, y, []string{"size"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainR2 < 0.99 {
		t.Fatalf("peaked curve R² %v", m.TrainR2)
	}
	// The peak must be reproduced, not averaged away.
	if m.Predict([]float64{128}) < 4 {
		t.Fatalf("peak flattened: %v", m.Predict([]float64{128}))
	}
}

func TestAdditiveTwoVariables(t *testing.T) {
	rng := stats.NewRNG(1)
	var x [][]float64
	var y []float64
	for i := 0; i < 120; i++ {
		a := rng.Float64() * 10
		b := rng.Float64() * 10
		x = append(x, []float64{a, b})
		y = append(y, 2*math.Max(0, a-4)+5*math.Max(0, 6-b))
	}
	m, err := Fit(x, y, []string{"a", "b"}, Config{MaxDegree: 1, MaxKnots: 20})
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainR2 < 0.98 {
		t.Fatalf("additive R² %v", m.TrainR2)
	}
}

func TestInteractionDegree2(t *testing.T) {
	rng := stats.NewRNG(2)
	var x [][]float64
	var y []float64
	for i := 0; i < 150; i++ {
		a := rng.Float64() * 4
		b := rng.Float64() * 4
		x = append(x, []float64{a, b})
		y = append(y, math.Max(0, a-1)*math.Max(0, b-2))
	}
	additive, err := Fit(x, y, []string{"a", "b"}, Config{MaxDegree: 1, MaxKnots: 15})
	if err != nil {
		t.Fatal(err)
	}
	interactive, err := Fit(x, y, []string{"a", "b"}, Config{MaxDegree: 2, MaxKnots: 15})
	if err != nil {
		t.Fatal(err)
	}
	if interactive.TrainR2 < additive.TrainR2 {
		t.Fatalf("interactions did not help: %v vs %v", interactive.TrainR2, additive.TrainR2)
	}
	if interactive.TrainR2 < 0.9 {
		t.Fatalf("interaction fit poor: %v", interactive.TrainR2)
	}
}

func TestBackwardPrunesNoise(t *testing.T) {
	// Constant response: the model must collapse to the intercept.
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, 3)
	}
	m, err := Fit(x, y, []string{"x"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTerms() != 1 {
		t.Fatalf("constant data kept %d terms", m.NumTerms())
	}
	if !eq(m.Predict([]float64{100}), 3, 1e-9) {
		t.Fatal("constant prediction wrong")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, nil, DefaultConfig()); err == nil {
		t.Fatal("empty set accepted")
	}
	x := [][]float64{{1}, {2}}
	if _, err := Fit(x, []float64{1}, []string{"a"}, DefaultConfig()); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Fit(x, []float64{1, 2}, []string{"a", "b"}, DefaultConfig()); err == nil {
		t.Fatal("name mismatch accepted")
	}
}

// TestFitRejectsRaggedRows: a training row shorter or longer than the
// first is an error that names the row, not a panic or a silent fit.
func TestFitRejectsRaggedRows(t *testing.T) {
	for name, bad := range map[string][]float64{"short": {4}, "long": {4, 5, 6}} {
		x := [][]float64{{1, 2}, {2, 1}, {3, 3}, bad, {5, 4}, {6, 6}}
		y := []float64{1, 2, 3, 4, 5, 6}
		_, err := Fit(x, y, []string{"a", "b"}, DefaultConfig())
		if err == nil || !strings.Contains(err.Error(), "row 3") {
			t.Errorf("%s row: error %v, want one naming row 3", name, err)
		}
	}
}

func TestPredictPanicsOnWidth(t *testing.T) {
	m, err := Fit([][]float64{{1}, {2}, {3}, {4}}, []float64{1, 2, 3, 4}, []string{"a"}, DefaultConfig())
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

func TestStringRendersEquation(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i <= 20; i++ {
		v := float64(i)
		x = append(x, []float64{v})
		y = append(y, math.Max(0, v-10))
	}
	m, err := Fit(x, y, []string{"n"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s := m.String(); s == "" {
		t.Fatal("empty equation")
	}
}

func TestPredictAllMatchesPredict(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 30; i++ {
		v := float64(i)
		x = append(x, []float64{v})
		y = append(y, v*v)
	}
	m, err := Fit(x, y, []string{"v"}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := m.PredictAll(x)
	for i := range x {
		if all[i] != m.Predict(x[i]) {
			t.Fatal("PredictAll diverges from Predict")
		}
	}
	if m.RSquared(x, y) != m.TrainR2 && math.Abs(m.RSquared(x, y)-m.TrainR2) > 1e-9 {
		t.Fatal("RSquared inconsistent with TrainR2 on training data")
	}
}
