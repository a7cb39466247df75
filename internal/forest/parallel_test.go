package forest

import "testing"

// TestPredictAllParallelMatchesSequential pins the worker-pool contract: for
// every worker count (including the sequential path), PredictAll returns
// exactly what a plain Predict loop would.
func TestPredictAllParallelMatchesSequential(t *testing.T) {
	x, y, names := friedman1(200, 9)
	for _, workers := range []int{1, 2, 3, 7, 32} {
		f, err := Fit(x, y, names, Config{NTrees: 50, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(x))
		for i, row := range x {
			want[i] = f.Predict(row)
		}
		got := predictAll(t, f, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: row %d: PredictAll %v != Predict %v", workers, i, got[i], want[i])
			}
		}
		// Tiny batches take the sequential path; they must agree too.
		small := predictAll(t, f, x[:2])
		for i := range small {
			if small[i] != want[i] {
				t.Fatalf("workers=%d: small-batch row %d differs", workers, i)
			}
		}
	}
}

// TestLoadedForestPredictAllParallel: a forest loaded from a bundle has no
// fit-time worker config (Workers=0 → all CPUs); the parallel path must
// still match sequential prediction bit for bit.
func TestLoadedForestPredictAllParallel(t *testing.T) {
	x, y, names := friedman1(150, 10)
	f, err := Fit(x, y, names, Config{NTrees: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Import(f.Export())
	if err != nil {
		t.Fatal(err)
	}
	want := predictAll(t, f, x)
	got := predictAll(t, loaded, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: loaded forest predicts %v, fitted %v", i, got[i], want[i])
		}
	}
}

// TestPartialDependenceWorkerIdentity pins the grid-point worker pool: the
// partial-dependence curves (and CI bands) are bit-identical for every
// worker count, including the sequential path.
func TestPartialDependenceWorkerIdentity(t *testing.T) {
	x, y, names := friedman1(120, 6)
	type curves struct {
		grid, resp     []float64
		ciGrid, ciResp []float64
		ciLo, ciHi     []float64
	}
	var want *curves
	for _, workers := range []int{1, 2, 5, 16} {
		f, err := Fit(x, y, names, Config{NTrees: 40, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		grid, resp, err := f.PartialDependence(names[0], 17)
		if err != nil {
			t.Fatal(err)
		}
		cg, cr, lo, hi, err := f.PartialDependenceCI(names[0], 17, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		got := &curves{grid, resp, cg, cr, lo, hi}
		if want == nil {
			want = got
			continue
		}
		for _, pair := range [][2][]float64{
			{want.grid, got.grid}, {want.resp, got.resp},
			{want.ciGrid, got.ciGrid}, {want.ciResp, got.ciResp},
			{want.ciLo, got.ciLo}, {want.ciHi, got.ciHi},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("workers=%d: length mismatch", workers)
			}
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("workers=%d: point %d: %v != %v", workers, i, pair[1][i], pair[0][i])
				}
			}
		}
	}
}
