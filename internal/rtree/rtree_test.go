package rtree

import (
	"math"
	"testing"
	"testing/quick"

	"blackforest/internal/stats"
)

// stepData returns a 1-D dataset with a clean step at x = 5.
func stepData() ([][]float64, []float64) {
	var x [][]float64
	var y []float64
	for i := 0; i < 20; i++ {
		x = append(x, []float64{float64(i)})
		if i < 5 {
			y = append(y, 1)
		} else {
			y = append(y, 10)
		}
	}
	return x, y
}

func TestFitStepFunction(t *testing.T) {
	x, y := stepData()
	tree, err := fitTree(x, y, nil, Params{MinNodeSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{2}); got != 1 {
		t.Fatalf("left region: got %v, want 1", got)
	}
	if got := tree.Predict([]float64{15}); got != 10 {
		t.Fatalf("right region: got %v, want 10", got)
	}
	leaves := 0
	for _, n := range tree.nodes {
		if n.feature < 0 {
			leaves++
		}
	}
	if leaves < 2 || leaves != (len(tree.nodes)+1)/2 {
		t.Fatalf("%d leaves in %d nodes, want at least 2 in a binary tree", leaves, len(tree.nodes))
	}
}

func TestPureNodeIsLeaf(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}}
	y := make([]float64, 10)
	for i := range y {
		y[i] = 7 // constant response
	}
	tree, err := fitTree(x, y, nil, Params{MinNodeSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.nodes) != 1 {
		t.Fatalf("constant response grew %d nodes", len(tree.nodes))
	}
	if tree.Predict([]float64{42}) != 7 {
		t.Fatal("constant prediction wrong")
	}
}

func TestMinNodeSizeRespected(t *testing.T) {
	x, y := stepData()
	tree, err := fitTree(x, y, nil, Params{MinNodeSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	// 20 samples < 2*MinNodeSize → no split possible.
	if len(tree.nodes) != 1 {
		t.Fatalf("oversized MinNodeSize still split: %d nodes", len(tree.nodes))
	}
}

func TestMaxDepth(t *testing.T) {
	// Rich data so unlimited depth would go deep.
	rng := stats.NewRNG(1)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := rng.Float64() * 10
		x = append(x, []float64{v})
		y = append(y, math.Sin(v)*10)
	}
	tree, err := fitTree(x, y, nil, Params{MinNodeSize: 2, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.depth(0) > 3 {
		t.Fatalf("depth %d exceeds cap 3", tree.depth(0))
	}
	deep, err := fitTree(x, y, nil, Params{MinNodeSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if deep.depth(0) <= 3 {
		t.Fatalf("unlimited tree suspiciously shallow: %d", deep.depth(0))
	}
}

func TestMultiFeatureSplitSelection(t *testing.T) {
	// Only feature 1 is informative; the tree must split on it.
	rng := stats.NewRNG(2)
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		noise := rng.Float64()
		signal := rng.Float64()
		x = append(x, []float64{noise, signal})
		if signal > 0.5 {
			y = append(y, 100)
		} else {
			y = append(y, 0)
		}
	}
	tree, err := fitTree(x, y, nil, Params{MinNodeSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	gains := tree.purityGain
	if gains[1] <= gains[0] {
		t.Fatalf("informative feature gained %v, noise %v", gains[1], gains[0])
	}
	if got := tree.Predict([]float64{0.9, 0.9}); got < 90 {
		t.Fatalf("prediction %v, want ≈100", got)
	}
}

func TestBootstrapIndices(t *testing.T) {
	x, y := stepData()
	// Train only on the left region via idx; predictions stay ≈1.
	idx := []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}
	tree, err := fitTree(x, y, idx, Params{MinNodeSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{15}); got != 1 {
		t.Fatalf("got %v, want 1 (trained only on left region)", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := fitTree(nil, nil, nil, Params{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := fitTree([][]float64{{1}}, []float64{1, 2}, nil, Params{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := fitTree([][]float64{{1}, {2, 3}}, []float64{1, 2}, nil, Params{}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := fitTree([][]float64{{1}, {2}}, []float64{1, 2}, []int{}, Params{}); err == nil {
		t.Fatal("empty index set accepted")
	}
	if _, err := fitTree([][]float64{{1}, {2}}, []float64{1, 2}, nil, Params{MTry: 1}); err == nil {
		t.Fatal("MTry without RNG accepted")
	}
	if _, err := fitTree([][]float64{{1}, {2}}, []float64{1, 2}, nil, Params{MTry: 5}); err == nil {
		t.Fatal("MTry > features accepted")
	}
}

// TestPredictPanicsOnWrongWidth: PredictTree, the walk behind out-of-bag
// error, importance and partial dependence, panics on a wrong-width row.
func TestPredictPanicsOnWrongWidth(t *testing.T) {
	x, y := stepData()
	m, err := NewMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := FitMatrix(m, y, nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong feature count")
		}
	}()
	f.PredictTree(0, []float64{1, 2})
}

// Property: predictions are bounded by the training response range.
func TestPredictionBounds(t *testing.T) {
	f := func(ys [16]float64, probe [3]float64) bool {
		var x [][]float64
		var y []float64
		rng := stats.NewRNG(11)
		for i, v := range ys {
			// Counter-scale magnitudes only; the prefix-sum split scan
			// overflows on ~1e300 squares, which no profile produces.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
			x = append(x, []float64{rng.Float64() * 10, float64(i)})
			y = append(y, v)
		}
		tree, err := fitTree(x, y, nil, Params{MinNodeSize: 2})
		if err != nil {
			return false
		}
		lo, hi := tree.minResp, tree.maxResp
		for _, p := range probe {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return true
			}
			got := tree.Predict([]float64{p, p})
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the tree perfectly memorizes distinct 1-D points when grown to
// minimum node size 1... (CART with MinNodeSize 2 may keep pairs; we check
// training MSE is no worse than variance).
func TestTrainingFitBeatsMean(t *testing.T) {
	rng := stats.NewRNG(3)
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		v := rng.Float64() * 100
		x = append(x, []float64{v})
		y = append(y, 3*v+rng.NormFloat64())
	}
	tree, err := fitTree(x, y, nil, Params{MinNodeSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, len(y))
	for i := range x {
		pred[i] = tree.Predict(x[i])
	}
	if stats.MSE(pred, y) >= stats.Variance(y) {
		t.Fatal("tree no better than the mean on its own training data")
	}
}
