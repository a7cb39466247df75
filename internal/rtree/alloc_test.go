package rtree

import (
	"testing"

	"blackforest/internal/stats"
)

// TestFitAllocsIndependentOfNodeCount asserts the per-builder workspace
// actually eliminates per-node allocation: growing a ~4000-node tree may
// allocate only marginally more than growing a 7-node tree on the same
// data. The node arrays are allocated once at the 2n-1 node bound, so the
// two should allocate alike. Before the presorted rewrite every node
// allocated fresh sort buffers, so this would differ by thousands.
func TestFitAllocsIndependentOfNodeCount(t *testing.T) {
	rng := stats.NewRNG(31)
	n, p := 2000, 8
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = 3*row[0] + rng.NormFloat64()
	}
	m, err := NewMatrix(x, y)
	if err != nil {
		t.Fatal(err)
	}

	measure := func(params Params) (float64, int) {
		var nodes int
		allocs := testing.AllocsPerRun(10, func() {
			var g Grower
			tree, _, err := g.Fit(m, nil, params)
			if err != nil {
				t.Fatal(err)
			}
			nodes = tree.NumNodes()
		})
		return allocs, nodes
	}

	shallow, shallowNodes := measure(Params{MinNodeSize: 2, MaxDepth: 2})
	deep, deepNodes := measure(Params{MinNodeSize: 1})
	if deepNodes < 50*shallowNodes {
		t.Fatalf("test premise broken: deep tree %d nodes vs shallow %d", deepNodes, shallowNodes)
	}
	// 40 is slack; per-node allocation would cost thousands here.
	if deep > shallow+40 {
		t.Fatalf("Fit allocates per node: %.0f allocs for %d nodes vs %.0f for %d",
			deep, deepNodes, shallow, shallowNodes)
	}
}

// TestGrowerAllocsPerTreeFixed asserts that a reused Grower allocates only
// what a tree returns — the one-tree FlatForest, its roots, its four node
// arrays and the purity gains — whatever the tree's row and feature counts.
// The shapes shrink and grow in turn, so both reuse of larger scratch and
// regrowth are covered (AllocsPerRun's warm-up run sizes the scratch).
func TestGrowerAllocsPerTreeFixed(t *testing.T) {
	const perTree = 7
	rng := stats.NewRNG(5)
	var g Grower
	for _, shape := range []struct{ n, p int }{{12, 7}, {29, 40}, {2, 1}, {400, 12}, {20, 3}} {
		x := make([][]float64, shape.n)
		y := make([]float64, shape.n)
		for i := range x {
			x[i] = make([]float64, shape.p)
			for j := range x[i] {
				x[i][j] = float64(rng.Intn(4)) // ties with unequal responses
			}
			y[i] = rng.Float64()
		}
		m, err := NewMatrix(x, y)
		if err != nil {
			t.Fatal(err)
		}
		idx, _ := rng.Bootstrap(shape.n)
		params := Params{MinNodeSize: 2, MTry: max(shape.p/3, 1), RNG: rng}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := g.Fit(m, idx, params); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != perTree {
			t.Errorf("n=%d p=%d: %.1f allocations per tree, want %d", shape.n, shape.p, allocs, perTree)
		}
	}
}
