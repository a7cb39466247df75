package forest

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"blackforest/internal/rtree"
	"blackforest/internal/stats"
)

// randomProblem generates a random regression design with a planted signal.
func randomProblem(rng *stats.RNG, rows, features int) ([][]float64, []float64, []string) {
	x := make([][]float64, rows)
	y := make([]float64, rows)
	names := make([]string, features)
	for j := range names {
		names[j] = string(rune('a' + j))
	}
	for i := range x {
		x[i] = make([]float64, features)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64() * 100
		}
		y[i] = 2*x[i][0] - x[i][features-1] + rng.NormFloat64()*0.5
	}
	return x, y, names
}

// TestFlatDifferential is the tentpole's gate: across many random forests
// and random query batches, the flat engine (single and batched, any worker
// count), a saved-bundle round trip, and the frozen pointer walker must
// all agree bit for bit.
func TestFlatDifferential(t *testing.T) {
	const trials = 25
	rng := stats.NewRNG(0xf1a7)
	for trial := 0; trial < trials; trial++ {
		rows := 30 + rng.Intn(50)
		features := 2 + rng.Intn(5)
		x, y, names := randomProblem(rng, rows, features)
		cfg := Config{
			NTrees:      3 + rng.Intn(8),
			MTry:        1 + rng.Intn(features),
			MinNodeSize: 2 + rng.Intn(4),
			Seed:        rng.Uint64(),
			Workers:     1 + rng.Intn(4),
		}
		f, err := Fit(x, y, names, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Round trip through the saved (flat) bundle.
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("trial %d: loading saved bundle: %v", trial, err)
		}
		if e := loaded.Engine(); e != "flat(dict16)" && e != "flat(f32)" && e != "flat(f64)" {
			t.Fatalf("trial %d: loaded engine = %q", trial, e)
		}
		if f.Engine() != "flat" {
			t.Fatalf("trial %d: fitted engine = %q, want flat", trial, f.Engine())
		}

		// Random query batch: mostly fresh draws, some training rows.
		n := 5 + rng.Intn(16)
		queries := make([][]float64, n)
		for i := range queries {
			if rng.Intn(3) == 0 {
				queries[i] = x[rng.Intn(rows)]
				continue
			}
			q := make([]float64, features)
			for j := range q {
				q[j] = rng.NormFloat64() * 150
			}
			queries[i] = q
		}

		batch := predictAll(t, f, queries)
		pf := mustRegrow(t, f)
		for i, q := range queries {
			oracle := pf.predict(q)
			flat := f.Predict(q)
			saved, err := loaded.PredictVector(q)
			if err != nil {
				t.Fatalf("trial %d row %d: %v", trial, i, err)
			}
			ob := math.Float64bits(oracle)
			if math.Float64bits(flat) != ob {
				t.Fatalf("trial %d row %d: flat %v != pointer %v", trial, i, flat, oracle)
			}
			if math.Float64bits(batch[i]) != ob {
				t.Fatalf("trial %d row %d: batch %v != pointer %v", trial, i, batch[i], oracle)
			}
			if math.Float64bits(saved) != ob {
				t.Fatalf("trial %d row %d: loaded %v != pointer %v", trial, i, saved, oracle)
			}
		}
	}
}

// TestPredictAllWorkerInvariance: the tree-major block schedule must produce
// the same bits for every worker count, including batches that are not a
// multiple of the block size.
func TestPredictAllWorkerInvariance(t *testing.T) {
	rng := stats.NewRNG(7)
	x, y, names := randomProblem(rng, 60, 3)
	queries := make([][]float64, 1000) // > predictBlockRows, not a multiple
	for i := range queries {
		queries[i] = []float64{rng.NormFloat64() * 100, rng.NormFloat64() * 100, rng.NormFloat64() * 100}
	}
	var want []float64
	for _, workers := range []int{1, 2, 3, 8} {
		f, err := Fit(x, y, names, Config{NTrees: 5, MinNodeSize: 3, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := predictAll(t, f, queries)
		if want == nil {
			want = got
			pf := mustRegrow(t, f)
			for i, q := range queries {
				if math.Float64bits(got[i]) != math.Float64bits(pf.predict(q)) {
					t.Fatalf("row %d: batch differs from pointer oracle", i)
				}
			}
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d row %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}

// exportTrees returns f's trees in the older per-node tree form, which
// Export no longer writes but Import still reads.
func exportTrees(t testing.TB, f *Forest) []*rtree.ExportedTree {
	return mustRegrow(t, f).trees
}

// TestQuantizedBundleProperties: the exported bundle carries only the flat
// encoding with its losslessly quantized values, is smaller than the same
// forest in tree form, still answers importance queries from the shell
// metadata, and has no pointer form: it keeps neither per-tree nodes nor
// the training data they could be regrown from.
func TestQuantizedBundleProperties(t *testing.T) {
	rng := stats.NewRNG(11)
	x, y, names := randomProblem(rng, 50, 3)
	f, err := Fit(x, y, names, Config{NTrees: 6, MinNodeSize: 3, Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := f.Export()
	if len(e.Trees) != 0 || e.Flat == nil {
		t.Fatalf("export carries %d trees, flat=%v", len(e.Trees), e.Flat != nil)
	}
	flatJSON, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	treeForm := *e
	treeForm.Flat, treeForm.Trees = nil, exportTrees(t, f)
	treeJSON, err := json.Marshal(&treeForm)
	if err != nil {
		t.Fatal(err)
	}
	if len(flatJSON) >= len(treeJSON) {
		t.Fatalf("flat export is %d bytes, tree form %d", len(flatJSON), len(treeJSON))
	}
	loaded, err := Import(e)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTrees() != f.NumTrees() {
		t.Fatalf("NumTrees = %d, want %d", loaded.NumTrees(), f.NumTrees())
	}
	if _, err := regrow(loaded); err == nil {
		t.Fatal("pointer oracle built from a flat-only bundle")
	}
}

// TestImportCrossValidatesFlat: when a bundle carries both trees and a flat
// encoding, the flat half must match what the trees read into; a tampered
// flat encoding is a corrupted bundle and must be rejected.
func TestImportCrossValidatesFlat(t *testing.T) {
	rng := stats.NewRNG(13)
	x, y, names := randomProblem(rng, 40, 3)
	f, err := Fit(x, y, names, Config{NTrees: 4, MinNodeSize: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := f.Export()
	e.Trees = exportTrees(t, f)
	if _, err := Import(e); err != nil {
		t.Fatalf("consistent trees+flat bundle rejected: %v", err)
	}
	// Tamper with one encoded value: now the halves disagree.
	switch e.Flat.Values.Enc {
	case "dict16":
		e.Flat.Values.Table[0] += 1
	case "f32":
		e.Flat.Values.F32[0] += 1
	default:
		e.Flat.Values.F64[0] += 1
	}
	if _, err := Import(e); err == nil {
		t.Fatal("tampered flat encoding accepted")
	}
}

// TestPredictAllMalformedRowErrors: a malformed row fails PredictAll with
// an error, never a panic, for any batch size — including batches spread
// over the worker pool.
func TestPredictAllMalformedRowErrors(t *testing.T) {
	rng := stats.NewRNG(17)
	x, y, names := randomProblem(rng, 40, 3)
	f, err := Fit(x, y, names, Config{NTrees: 4, MinNodeSize: 3, Seed: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{2, 600} {
		rows := make([][]float64, size)
		for i := range rows {
			rows[i] = x[i%len(x)]
		}
		rows[size-1] = []float64{1} // ragged
		if out, err := f.PredictAll(rows); err == nil || out != nil {
			t.Fatalf("size %d: malformed row returned %d predictions, err %v", size, len(out), err)
		}
	}
}

// predictAll is PredictAll for well-formed rows: an error fails the test.
func predictAll(t testing.TB, f *Forest, xs [][]float64) []float64 {
	t.Helper()
	out, err := f.PredictAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
