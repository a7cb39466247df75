package rtree

import (
	"encoding/json"
	"math"
	"testing"

	"blackforest/internal/stats"
)

// NumNodes returns the total node count across all trees.
func (f *FlatForest) NumNodes() int { return len(f.feature) }

// fitTestTrees grows nTrees CART trees on bootstrap resamples of a random
// regression problem, as forest.Fit does, and returns them joined into a
// forest, each rebuilt in node-list form as the oracle, and the rows.
func fitTestTrees(t testing.TB, seed uint64, nTrees, rows, features int) (*FlatForest, []*Tree, [][]float64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		x[i] = make([]float64, features)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64() * 10
		}
		y[i] = x[i][0]*3 - x[i][features-1] + rng.NormFloat64()
	}
	m, err := NewMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*FlatForest, nTrees)
	trees := make([]*Tree, nTrees)
	for k := range trees {
		inBag, _ := rng.Bootstrap(rows)
		part, purity, err := FitMatrix(m, y, inBag, Params{MinNodeSize: 3, MTry: features, RNG: rng})
		if err != nil {
			t.Fatalf("fitting tree %d: %v", k, err)
		}
		if trees[k], err = rebuild(part, purity, x, y, inBag); err != nil {
			t.Fatalf("rebuilding tree %d: %v", k, err)
		}
		parts[k] = part
	}
	flat, err := Join(parts)
	if err != nil {
		t.Fatal(err)
	}
	return flat, trees, x
}

// TestFlatMatchesPointerWalker: the flat engine must reproduce the
// node-list walker bit for bit — same comparisons, verbatim leaf values,
// tree-order summation — for the whole forest and tree by tree, on the
// training rows and on rows that sit exactly on a split threshold.
func TestFlatMatchesPointerWalker(t *testing.T) {
	flat, trees, x := fitTestTrees(t, 1, 7, 120, 4)
	if flat.NumTrees() != len(trees) {
		t.Fatalf("NumTrees = %d, want %d", flat.NumTrees(), len(trees))
	}
	if flat.NumFeatures() != 4 {
		t.Fatalf("NumFeatures = %d, want 4", flat.NumFeatures())
	}
	wantNodes := 0
	for _, tr := range trees {
		wantNodes += len(tr.nodes)
	}
	if flat.NumNodes() != wantNodes {
		t.Fatalf("NumNodes = %d, want %d", flat.NumNodes(), wantNodes)
	}
	if flat.Encoding() != "" {
		t.Fatalf("grown forest reports encoding %q, want \"\"", flat.Encoding())
	}

	// On a threshold, x[feature] <= threshold must go left.
	for i := range flat.feature {
		if flat.feature[i] >= 0 {
			row := append([]float64(nil), x[i%len(x)]...)
			row[flat.feature[i]] = flat.thresh[i]
			x = append(x, row)
		}
	}
	out := make([]float64, len(x))
	if err := flat.PredictBatch(x, out); err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		var s float64
		for k, tr := range trees {
			want := tr.Predict(row)
			if got := flat.PredictTree(k, row); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d tree %d: flat %v != pointer %v", i, k, got, want)
			}
			s += want
		}
		want := s / float64(len(trees))
		got, err := flat.Predict(row)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: flat %v != pointer %v", i, got, want)
		}
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: batch %v != pointer %v", i, out[i], want)
		}
	}
}

// TestImportTreesRejects: every malformed or hostile tree-form forest is
// rejected by the tree-form reader, never walked.
func TestImportTreesRejects(t *testing.T) {
	const (
		leaf  = `{"nodes":[{"f":-1,"v":1,"n":1}],"features":2}`
		split = `{"nodes":[{"f":1,"t":0.5,"l":1,"r":2,"v":1,"n":2},{"f":-1,"v":0,"n":1},{"f":-1,"v":2,"n":1}],"features":2,"purity":[0,1]}`
	)
	read := func(trees string) error {
		var e []*ExportedTree
		if err := json.Unmarshal([]byte(trees), &e); err != nil {
			t.Fatalf("%s: %v", trees, err)
		}
		_, err := ImportTrees(e)
		return err
	}
	if err := read(`[` + leaf + `,` + split + `]`); err != nil {
		t.Fatalf("baseline forest rejected: %v", err)
	}
	for _, c := range []struct{ name, trees string }{
		{"no trees", `[]`},
		{"nil tree", `[` + leaf + `,null]`},
		{"mismatched feature counts", `[` + leaf + `,{"nodes":[{"f":-1,"v":1,"n":1}],"features":3}]`},
		{"empty node list", `[{"nodes":[],"features":2}]`},
		{"no features", `[{"nodes":[{"f":-1,"v":1,"n":1}],"features":0}]`},
		{"feature out of range", `[{"nodes":[{"f":2,"t":0.5,"l":1,"r":2},{"f":-1,"v":0},{"f":-1,"v":2}],"features":2}]`},
		{"feature 1<<32", `[{"nodes":[{"f":4294967296,"t":0.5,"l":1,"r":2},{"f":-1,"v":0},{"f":-1,"v":2}],"features":2}]`},
		{"feature count beyond int32", `[{"nodes":[{"f":4294967296,"t":0.5,"l":1,"r":2},{"f":-1,"v":0},{"f":-1,"v":2}],"features":4294967297}]`},
		{"purity length mismatch", `[{"nodes":[{"f":-1,"v":1,"n":1}],"features":2,"purity":[1,2,3]}]`},
		{"self cycle", `[{"nodes":[{"f":0,"t":0.5,"l":0,"r":0}],"features":2}]`},
		{"backward edge", `[{"nodes":[{"f":0,"t":0.5,"l":1,"r":2},{"f":0,"t":1,"l":0,"r":2},{"f":-1,"v":2}],"features":2}]`},
		{"child out of range", `[{"nodes":[{"f":0,"t":0.5,"l":1,"r":3},{"f":-1,"v":0},{"f":-1,"v":2}],"features":2}]`},
		{"child offset near MaxInt32", `[{"nodes":[{"f":0,"t":0.5,"l":1,"r":2147483647},{"f":-1,"v":0},{"f":-1,"v":2}],"features":2}]`},
		{"child offset near MaxInt32 past tree 0", `[` + leaf + `,{"nodes":[{"f":0,"t":0.5,"l":1,"r":2147483647},{"f":-1,"v":0},{"f":-1,"v":2}],"features":2}]`},
	} {
		if err := read(c.trees); err == nil {
			t.Errorf("%s: hostile forest accepted", c.name)
		}
	}
}

func TestFlatPredictErrors(t *testing.T) {
	flat, _, x := fitTestTrees(t, 4, 3, 60, 3)
	if _, err := flat.Predict([]float64{1, 2}); err == nil {
		t.Fatal("predicted with a short vector")
	}
	if _, err := flat.Predict(nil); err == nil {
		t.Fatal("predicted with a nil vector")
	}
	if err := flat.PredictBatch(x[:4], make([]float64, 3)); err == nil {
		t.Fatal("batch accepted a mismatched output length")
	}
	bad := [][]float64{x[0], {1}}
	if err := flat.PredictBatch(bad, make([]float64, 2)); err == nil {
		t.Fatal("batch accepted a ragged row")
	}
}

// TestFlatExportImportRoundTrip: a JSON round trip through the bundle
// encoding must reconstruct the same structure (Equal) and the same
// predictions, bit for bit.
func TestFlatExportImportRoundTrip(t *testing.T) {
	flat, _, x := fitTestTrees(t, 5, 5, 100, 4)
	blob, err := json.Marshal(flat.Export())
	if err != nil {
		t.Fatal(err)
	}
	var e ExportedFlatForest
	if err := json.Unmarshal(blob, &e); err != nil {
		t.Fatal(err)
	}
	got, err := ImportFlat(&e)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(flat) {
		t.Fatal("round-tripped forest differs structurally")
	}
	if got.Encoding() == "" {
		t.Fatal("imported forest reports no encoding")
	}
	for i, row := range x {
		a, err := flat.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("row %d: round trip changed prediction %v -> %v", i, a, b)
		}
	}
}

func TestEncodeValuesSelection(t *testing.T) {
	roundTrip := func(t *testing.T, vals []float64, wantEnc string) {
		t.Helper()
		e := encodeValues(vals)
		if e.Enc != wantEnc {
			t.Fatalf("encoding = %q, want %q", e.Enc, wantEnc)
		}
		got, err := e.decode(len(vals))
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d: %x -> %x", i, math.Float64bits(vals[i]), math.Float64bits(got[i]))
			}
		}
	}

	// Few distinct values, including the -0/+0 pair and NaN: dict16, and the
	// decode must restore the exact bit patterns.
	t.Run("dict16", func(t *testing.T) {
		vals := []float64{1.5, -2.25, 1.5, math.Copysign(0, -1), 0, math.NaN(), 1.5}
		roundTrip(t, vals, "dict16")
	})

	// More than 65536 distinct float32-exact values: f32.
	t.Run("f32", func(t *testing.T) {
		vals := make([]float64, 1<<16+10)
		for i := range vals {
			vals[i] = float64(float32(i) * 0.5)
		}
		roundTrip(t, vals, "f32")
	})

	// More than 65536 distinct values where at least one is not float32-exact:
	// raw f64 fallback.
	t.Run("f64", func(t *testing.T) {
		vals := make([]float64, 1<<16+10)
		for i := range vals {
			vals[i] = float64(i) + 0.1
		}
		roundTrip(t, vals, "f64")
	})
}

func TestDecodeValuesRejects(t *testing.T) {
	cases := []ExportedValues{
		{Enc: "dict16", Table: []float64{1}, Idx: []uint16{0}},    // wrong n (decode(2))
		{Enc: "dict16", Table: nil, Idx: []uint16{0, 0}},          // empty table
		{Enc: "dict16", Table: []float64{1}, Idx: []uint16{0, 5}}, // index out of table
		{Enc: "f32", F32: []float32{1}},                           // wrong n
		{Enc: "f64", F64: []float64{1}},                           // wrong n
		{Enc: "zstd", F64: []float64{1, 2}},                       // unknown encoding
	}
	for i, e := range cases {
		if _, err := e.decode(2); err == nil {
			t.Fatalf("case %d: decoded invalid values", i)
		}
	}
}

// TestImportFlatRejectsHostile: structurally hostile bundles must be
// rejected by validation, never walked.
func TestImportFlatRejectsHostile(t *testing.T) {
	valid := func() *ExportedFlatForest {
		return &ExportedFlatForest{
			NFeatures: 2,
			Roots:     []int32{0, 3},
			Feature:   []int32{0, -1, -1, -1},
			Left:      []int32{1, 0, 0, 0},
			Right:     []int32{2, 0, 0, 0},
			Values:    ExportedValues{Enc: "f64", F64: []float64{0.5, 1, 2, 3}},
		}
	}
	if _, err := ImportFlat(valid()); err != nil {
		t.Fatalf("baseline bundle rejected: %v", err)
	}

	mutate := []struct {
		name string
		f    func(e *ExportedFlatForest)
	}{
		{"nil", func(e *ExportedFlatForest) { *e = ExportedFlatForest{} }},
		{"no features", func(e *ExportedFlatForest) { e.NFeatures = 0 }},
		{"no nodes", func(e *ExportedFlatForest) {
			e.Feature, e.Left, e.Right = nil, nil, nil
			e.Values = ExportedValues{Enc: "f64"}
		}},
		{"ragged arrays", func(e *ExportedFlatForest) { e.Left = e.Left[:2] }},
		{"no roots", func(e *ExportedFlatForest) { e.Roots = nil }},
		{"first root nonzero", func(e *ExportedFlatForest) { e.Roots[0] = 1 }},
		{"roots not increasing", func(e *ExportedFlatForest) { e.Roots = []int32{0, 0} }},
		{"root out of range", func(e *ExportedFlatForest) { e.Roots = []int32{0, 9} }},
		{"feature out of range", func(e *ExportedFlatForest) { e.Feature[0] = 7 }},
		{"self cycle", func(e *ExportedFlatForest) { e.Left[0] = 0 }},
		{"backward edge", func(e *ExportedFlatForest) {
			e.Feature[1] = 0
			e.Left[1], e.Right[1] = 1, 2 // left child == self
		}},
		{"child crosses tree span", func(e *ExportedFlatForest) { e.Right[0] = 3 }},
		{"child out of range", func(e *ExportedFlatForest) { e.Right[0] = 99 }},
		{"bad values", func(e *ExportedFlatForest) { e.Values = ExportedValues{Enc: "f64", F64: []float64{1}} }},
	}
	for _, m := range mutate {
		e := valid()
		m.f(e)
		if _, err := ImportFlat(e); err == nil {
			t.Fatalf("%s: hostile bundle accepted", m.name)
		}
	}
}

// TestImportFlatNormalizesLeafChildren: serialized junk in leaf child slots
// must not survive import (it would break Equal against a grown forest).
func TestImportFlatNormalizesLeafChildren(t *testing.T) {
	e := &ExportedFlatForest{
		NFeatures: 1,
		Roots:     []int32{0},
		Feature:   []int32{0, -1, -1},
		Left:      []int32{1, 42, -7},
		Right:     []int32{2, 13, 99},
		Values:    ExportedValues{Enc: "f64", F64: []float64{0, 1, 2}},
	}
	f, err := ImportFlat(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if f.left[i] != 0 || f.right[i] != 0 {
			t.Fatalf("leaf %d children not normalized: (%d, %d)", i, f.left[i], f.right[i])
		}
	}
	got, err := f.Predict([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("Predict = %v, want 2", got)
	}
}
