package forest

import (
	"math"
	"testing"
	"testing/quick"

	"blackforest/internal/stats"
)

// OOBPredictions returns per-sample OOB predictions (NaN where a sample was
// in-bag for every tree), recomputed from the forest's trees and bags.
func (f *Forest) OOBPredictions() []float64 { return f.oobPredictions() }

// ResponseRange returns [min, max] of the training response.
func (f *Forest) ResponseRange() (lo, hi float64) { return f.minResp, f.maxResp }

// friedman1 generates Friedman's #1 regression benchmark:
// y = 10·sin(π·x1·x2) + 20·(x3−0.5)² + 10·x4 + 5·x5 + ε, with x6..x10 noise.
func friedman1(n int, seed uint64) (x [][]float64, y []float64, names []string) {
	rng := stats.NewRNG(seed)
	names = []string{"x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10"}
	for i := 0; i < n; i++ {
		row := make([]float64, 10)
		for j := range row {
			row[j] = rng.Float64()
		}
		x = append(x, row)
		y = append(y, 10*math.Sin(math.Pi*row[0]*row[1])+
			20*(row[2]-0.5)*(row[2]-0.5)+10*row[3]+5*row[4]+rng.NormFloat64())
	}
	return x, y, names
}

func TestFitFriedman1(t *testing.T) {
	x, y, names := friedman1(300, 1)
	f, err := Fit(x, y, names, Config{NTrees: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if f.VarExplained() < 0.6 {
		t.Fatalf("Friedman#1 %%var explained %.2f < 0.6", f.VarExplained())
	}
	// Informative variables must outrank every pure-noise variable.
	imp := f.VariableImportance()
	rank := map[string]int{}
	for i, v := range imp {
		rank[v.Name] = i
	}
	for _, sig := range []string{"x1", "x2", "x4"} {
		for _, noise := range []string{"x6", "x7", "x8", "x9", "x10"} {
			if rank[sig] > rank[noise] {
				t.Fatalf("%s (rank %d) ranked below noise %s (rank %d)",
					sig, rank[sig], noise, rank[noise])
			}
		}
	}
}

func TestNoiseImportanceNearZero(t *testing.T) {
	x, y, names := friedman1(300, 2)
	f, err := Fit(x, y, names, Config{NTrees: 200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var sigImp, noiseImp float64
	for _, v := range f.VariableImportance() {
		switch v.Name {
		case "x4":
			sigImp = v.IncMSE
		case "x9":
			noiseImp = v.IncMSE
		}
	}
	if noiseImp > sigImp/3 {
		t.Fatalf("noise IncMSE %v too close to signal %v", noiseImp, sigImp)
	}
}

func TestDeterminismAcrossFits(t *testing.T) {
	x, y, names := friedman1(100, 3)
	a, err := Fit(x, y, names, Config{NTrees: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(x, y, names, Config{NTrees: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.OOBMSE() != b.OOBMSE() {
		t.Fatal("same seed produced different OOB MSE")
	}
	probe := x[0]
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("same seed produced different predictions")
	}
	c, err := Fit(x, y, names, Config{NTrees: 50, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.OOBMSE() == c.OOBMSE() {
		t.Fatal("different seeds produced identical OOB MSE")
	}
}

func TestFitDefensiveCopy(t *testing.T) {
	x, y, names := friedman1(100, 13)
	f, err := Fit(x, y, names, Config{NTrees: 60, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	probe := append([]float64(nil), x[0]...)
	oob := f.OOBMSE()
	pred := f.Predict(probe)
	imp := f.VariableImportance()
	grid, resp, err := f.PartialDependence("x1", 8)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.ResponseRange()

	// Trash the caller's slices; the fitted forest must not notice.
	for i := range x {
		for j := range x[i] {
			x[i][j] = 1e9
		}
	}
	for i := range y {
		y[i] = -1e9
	}

	if f.OOBMSE() != oob {
		t.Fatal("OOB MSE changed after mutating training data")
	}
	if f.Predict(probe) != pred {
		t.Fatal("prediction changed after mutating training data")
	}
	if lo2, hi2 := f.ResponseRange(); lo2 != lo || hi2 != hi {
		t.Fatalf("response range tracked caller's y: [%v,%v] vs [%v,%v]", lo2, hi2, lo, hi)
	}
	imp2 := f.VariableImportance()
	for i := range imp {
		if imp[i] != imp2[i] {
			t.Fatal("importance changed after mutating training data")
		}
	}
	grid2, resp2, err := f.PartialDependence("x1", 8)
	if err != nil {
		t.Fatal(err)
	}
	for g := range grid {
		if grid[g] != grid2[g] || resp[g] != resp2[g] {
			t.Fatal("partial dependence read the caller's mutated matrix")
		}
	}
}

func TestPredictAllAndBounds(t *testing.T) {
	x, y, names := friedman1(150, 4)
	f, err := Fit(x, y, names, Config{NTrees: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.ResponseRange()
	preds := predictAll(t, f, x)
	for _, p := range preds {
		if p < lo || p > hi {
			t.Fatalf("prediction %v outside training range [%v, %v]", p, lo, hi)
		}
	}
}

func TestOOBPredictions(t *testing.T) {
	x, y, names := friedman1(100, 5)
	f, err := Fit(x, y, names, Config{NTrees: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	oob := f.OOBPredictions()
	if len(oob) != 100 {
		t.Fatalf("OOB predictions length %d", len(oob))
	}
	nan := 0
	for _, v := range oob {
		if math.IsNaN(v) {
			nan++
		}
	}
	// With 100 trees virtually every sample is OOB for some tree.
	if nan > 2 {
		t.Fatalf("%d samples have no OOB prediction", nan)
	}
	if f.OOBMSE() <= 0 {
		t.Fatal("OOB MSE not positive on noisy data")
	}
}

func TestConfigDefaults(t *testing.T) {
	x, y, names := friedman1(60, 6)
	f, err := Fit(x, y, names, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 500 {
		t.Fatalf("default NTrees %d", f.NumTrees())
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, nil, Config{}); err == nil {
		t.Fatal("empty set accepted")
	}
	x := [][]float64{{1, 2}, {3, 4}}
	if _, err := Fit(x, []float64{1}, []string{"a", "b"}, Config{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Fit(x, []float64{1, 2}, []string{"a"}, Config{}); err == nil {
		t.Fatal("name count mismatch accepted")
	}
	if _, err := Fit(x, []float64{1, 2}, []string{"a", "b"}, Config{MTry: 5}); err == nil {
		t.Fatal("MTry > p accepted")
	}
}

func TestTopPredictors(t *testing.T) {
	x, y, names := friedman1(150, 7)
	f, err := Fit(x, y, names, Config{NTrees: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	top := f.TopPredictors(3)
	if len(top) != 3 {
		t.Fatalf("TopPredictors(3) returned %d", len(top))
	}
	all := f.TopPredictors(99)
	if len(all) != 10 {
		t.Fatalf("TopPredictors(99) returned %d", len(all))
	}
}

func TestPartialDependenceMonotone(t *testing.T) {
	// y = 5·x1 (pure linear): the PD profile of x1 must rise.
	rng := stats.NewRNG(8)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		y = append(y, 5*a)
	}
	f, err := Fit(x, y, []string{"x1", "x2"}, Config{NTrees: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	grid, resp, err := f.PartialDependence("x1", 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 15 || len(resp) != 15 {
		t.Fatal("grid size wrong")
	}
	if stats.Correlation(grid, resp) < 0.95 {
		t.Fatalf("PD of linear driver not monotone: r=%v", stats.Correlation(grid, resp))
	}
	if _, _, err := f.PartialDependence("nope", 10); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}

// Property: forest predictions are convex combinations of tree leaf means,
// hence bounded by the training response range, for any probe.
func TestForestBoundsProperty(t *testing.T) {
	x, y, names := friedman1(80, 9)
	f, err := Fit(x, y, names, Config{NTrees: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.ResponseRange()
	prop := func(probe [10]float64) bool {
		for i := range probe {
			if math.IsNaN(probe[i]) || math.IsInf(probe[i], 0) {
				return true
			}
		}
		p := f.Predict(probe[:])
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestImportanceOrderingDeterministic(t *testing.T) {
	x, y, names := friedman1(120, 10)
	f, err := Fit(x, y, names, Config{NTrees: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a := f.VariableImportance()
	b := f.VariableImportance()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("importance ordering unstable across calls")
		}
	}
}

func TestPartialDependenceCI(t *testing.T) {
	x, y, names := friedman1(150, 12)
	f, err := Fit(x, y, names, Config{NTrees: 60, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	grid, resp, lo, hi, err := f.PartialDependenceCI("x4", 10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 10 || len(resp) != 10 || len(lo) != 10 || len(hi) != 10 {
		t.Fatal("CI profile lengths wrong")
	}
	for g := range grid {
		if !(lo[g] <= resp[g] && resp[g] <= hi[g]) {
			t.Fatalf("band does not bracket mean at %d: %v %v %v", g, lo[g], resp[g], hi[g])
		}
		if hi[g] < lo[g] {
			t.Fatal("inverted band")
		}
	}
	// The band must have nonzero width somewhere: trees disagree.
	var width float64
	for g := range grid {
		width += hi[g] - lo[g]
	}
	if width <= 0 {
		t.Fatal("zero-width confidence band across the whole profile")
	}
	// Mean profile consistent with the plain PD (same definition).
	_, plain, err := f.PartialDependence("x4", 10)
	if err != nil {
		t.Fatal(err)
	}
	for g := range plain {
		if math.Abs(plain[g]-resp[g]) > 1e-9 {
			t.Fatalf("CI mean diverges from PD at %d: %v vs %v", g, resp[g], plain[g])
		}
	}
	if _, _, _, _, err := f.PartialDependenceCI("nope", 10, 0.9); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}
