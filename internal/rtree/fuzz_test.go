package rtree

import (
	"encoding/json"
	"math"
	"testing"

	"blackforest/internal/stats"
)

// FuzzImport: arbitrary JSON must never panic the tree-form reader
// (ImportTrees), and any tree that loads must predict, on the probe
// vectors, exactly what a node-by-node walk of the same exported tree
// returns. The child>parent invariant is what makes a walk through a
// hostile node array safe, so this fuzz target is its regression test.
func FuzzImport(f *testing.F) {
	// Seed with a genuine exported tree...
	x := [][]float64{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {5, 2}, {6, 3}, {7, 3}}
	y := []float64{0, 0, 1, 1, 4, 4, 9, 9}
	tree, err := fitTree(x, y, nil, Params{MinNodeSize: 2})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(tree.Export())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// ...and structurally hostile variants: cycles, out-of-range children,
	// self-references, bad feature indices.
	f.Add([]byte(`{"nodes":[{"f":0,"t":1,"l":0,"r":0,"v":0,"n":1}],"features":2}`))
	f.Add([]byte(`{"nodes":[{"f":0,"t":1,"l":1,"r":2,"v":0,"n":1},{"f":-1,"v":1,"n":1},{"f":0,"t":2,"l":1,"r":0,"v":0,"n":1}],"features":1}`))
	f.Add([]byte(`{"nodes":[{"f":5,"v":0,"n":1}],"features":2}`))
	f.Add([]byte(`{"nodes":[{"f":-1,"v":3,"n":8}],"features":1,"purity":[1,2,3]}`))
	f.Add([]byte(`{"nodes":[],"features":1}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"nodes":[{"f":4294967296,"t":1,"l":1,"r":2},{"f":-1,"v":1},{"f":-1,"v":2}],"features":2}`))
	f.Add([]byte(`{"nodes":[{"f":1,"t":1,"l":1,"r":2},{"f":-1,"v":1},{"f":-1,"v":2}],"features":2,"purity":[1]}`))
	f.Add([]byte(`{"nodes":[{"f":0,"t":1,"l":1,"r":2147483647},{"f":-1,"v":1},{"f":-1,"v":2}],"features":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var e *ExportedTree
		if err := json.Unmarshal(data, &e); err != nil {
			return
		}
		ff, err := ImportTrees([]*ExportedTree{e})
		if err != nil {
			return
		}
		if got := ff.NumNodes(); got != len(e.Nodes) {
			t.Fatalf("imported tree has %d nodes, exported %d", got, len(e.Nodes))
		}
		if e.NFeatures > 1<<12 {
			return // probing would allocate the declared width
		}
		// Probe with constant vectors and with every split threshold.
		fills := []float64{0, 1e9, -1e9}
		for _, n := range e.Nodes {
			if n.Feature >= 0 {
				fills = append(fills, n.Threshold)
			}
		}
		probe := make([]float64, e.NFeatures)
		for _, fill := range fills {
			for i := range probe {
				probe[i] = fill
			}
			got := ff.PredictTree(0, probe)
			if want := walkExported(e, probe); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("probe %v: imported tree predicts %v, node walk %v", fill, got, want)
			}
		}
		// NaN compares false both ways, outside the x <= t rule the oracle
		// states; the walk must still terminate.
		for i := range probe {
			probe[i] = math.NaN()
		}
		ff.PredictTree(0, probe)
	})
}

// walkExported walks an exported tree node by node: x[feature] <= threshold
// goes left, and a leaf (negative feature) answers its value.
func walkExported(e *ExportedTree, x []float64) float64 {
	i := int32(0)
	for {
		n := &e.Nodes[i]
		if n.Feature < 0 {
			return n.Value
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// FuzzImportFlat: the flat bundle decoder must never panic on arbitrary
// JSON, and any flat forest that imports successfully must terminate and
// stay in range on Predict. The children-after-parent-within-span check is
// what makes a walk through a hostile node array safe; cycles and
// out-of-range child offsets must be rejected at import, never walked.
func FuzzImportFlat(f *testing.F) {
	// Seed with a genuine grown forest...
	x := [][]float64{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {5, 2}, {6, 3}, {7, 3}}
	y := []float64{0, 0, 1, 1, 4, 4, 9, 9}
	m, err := NewMatrix(x, y)
	if err != nil {
		f.Fatal(err)
	}
	var trees []*FlatForest
	var g Grower
	for i := 0; i < 3; i++ {
		tree, _, err := g.Fit(m, []int{i, i + 1, i + 2, i + 3, i + 4, 0, 1, 2}, Params{MinNodeSize: 2})
		if err != nil {
			f.Fatal(err)
		}
		trees = append(trees, tree)
	}
	flat, err := Join(trees)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(flat.Export())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// ...and structurally hostile variants: self cycles, backward edges,
	// children escaping their tree span, bad roots, bad dict16 indices.
	f.Add([]byte(`{"features":1,"roots":[0],"feature":[0],"left":[0],"right":[0],"values":{"enc":"f64","f64":[1]}}`))
	f.Add([]byte(`{"features":1,"roots":[0],"feature":[0,0,-1],"left":[1,0,0],"right":[2,2,0],"values":{"enc":"f64","f64":[1,2,3]}}`))
	f.Add([]byte(`{"features":2,"roots":[0,1],"feature":[-1,0],"left":[0,2],"right":[0,3],"values":{"enc":"f64","f64":[1,2]}}`))
	f.Add([]byte(`{"features":2,"roots":[1,0],"feature":[-1,-1],"left":[0,0],"right":[0,0],"values":{"enc":"f64","f64":[1,2]}}`))
	f.Add([]byte(`{"features":1,"roots":[0],"feature":[-1],"left":[0],"right":[0],"values":{"enc":"dict16","table":[5],"idx":[9]}}`))
	f.Add([]byte(`{"features":1,"roots":[0],"feature":[-1],"left":[0],"right":[0],"values":{"enc":"f32","f32":[1.5]}}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var e ExportedFlatForest
		if err := json.Unmarshal(data, &e); err != nil {
			return
		}
		ff, err := ImportFlat(&e)
		if err != nil {
			return
		}
		// The imported forest must walk every tree to a leaf on any input
		// without panicking or looping: probe a few vectors of the declared
		// width, plus batch mode over the same probes.
		probes := make([][]float64, 0, 4)
		for _, fill := range []float64{0, 1e9, -1e9, math.NaN()} {
			probe := make([]float64, ff.NumFeatures())
			for i := range probe {
				probe[i] = fill
			}
			if _, err := ff.Predict(probe); err != nil {
				t.Fatalf("imported forest rejected a %d-wide probe: %v", len(probe), err)
			}
			probes = append(probes, probe)
		}
		if err := ff.PredictBatch(probes, make([]float64, len(probes))); err != nil {
			t.Fatalf("imported forest rejected a probe batch: %v", err)
		}
		if got := ff.NumNodes(); got != len(e.Feature) {
			t.Fatalf("imported forest has %d nodes, exported %d", got, len(e.Feature))
		}
	})
}

// FuzzFitMatchesLegacy: every tree a reused Grower grows must export
// byte-identically to the reference builder's tree on the same data. The
// data is heavy in ties: each feature takes a few levels, and the responses
// are a few values whose sums depend on their order, so a scan that visits
// tied rows in any order but (value, id) shows as a changed threshold, leaf
// or purity bit. Three trees
// of different shapes are grown in a row with one Grower, so scratch
// state a previous tree left behind shows too.
func FuzzFitMatchesLegacy(f *testing.F) {
	f.Add([]byte{0}, uint64(0))
	f.Add([]byte{38, 5, 2, 7, 1, 3, 9, 4, 0, 6, 11, 8}, uint64(1))
	f.Add([]byte{17, 2, 3, 200, 13, 77, 5, 91, 42, 8, 250, 1, 64, 33}, uint64(7))
	f.Add([]byte("tie-heavy training sets, bootstrapped"), uint64(99))

	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		pos := 0
		next := func(k int) int { // the next fuzz byte, reduced mod k
			if len(data) == 0 {
				return 0
			}
			b := int(data[pos%len(data)]) + pos/len(data)
			pos++
			return b % k
		}
		responses := []float64{0.1, 0.7, 1.3, 1e-3, 29.9}
		var g Grower
		for tree := 0; tree < 3; tree++ {
			n, p, levels := 2+next(39), 1+next(6), 1+next(4)
			x := make([][]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = make([]float64, p)
				for j := range x[i] {
					x[i][j] = float64(next(levels))
				}
				y[i] = responses[next(len(responses))]
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = next(n)
			}
			params := Params{MTry: next(p + 1), MinNodeSize: 1 + next(5), MaxDepth: next(4)}

			params.RNG = stats.NewRNG(seed + uint64(tree))
			want, err := legacyFit(x, y, idx, params)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMatrix(x, y)
			if err != nil {
				t.Fatal(err)
			}
			params.RNG = stats.NewRNG(seed + uint64(tree))
			ff, purity, err := g.Fit(m, idx, params)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rebuild(ff, purity, x, y, idx)
			if err != nil {
				t.Fatalf("tree %d: %v", tree, err)
			}
			w, _ := json.Marshal(want.Export())
			gj, _ := json.Marshal(got.Export())
			if string(w) != string(gj) {
				t.Fatalf("tree %d (n=%d p=%d %+v): Grower diverged from legacy\ngot:  %s\nwant: %s",
					tree, n, p, params, gj, w)
			}
		}
	})
}
