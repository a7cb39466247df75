package rtree

import (
	"encoding/json"
	"math"
	"testing"
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
	m, err := NewMatrix(x)
	if err != nil {
		f.Fatal(err)
	}
	var trees []*FlatForest
	for i := 0; i < 3; i++ {
		tree, _, err := FitMatrix(m, y, []int{i, i + 1, i + 2, i + 3, i + 4, 0, 1, 2}, Params{MinNodeSize: 2})
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
