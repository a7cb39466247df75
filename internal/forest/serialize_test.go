package forest

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	x, y, names := friedman1(120, 20)
	orig, err := Fit(x, y, names, Config{NTrees: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Identical predictions on every training row and fresh probes.
	for i, row := range x {
		if orig.Predict(row) != loaded.Predict(row) {
			t.Fatalf("prediction differs at row %d", i)
		}
	}
	if loaded.NumTrees() != orig.NumTrees() {
		t.Fatal("tree count differs")
	}
	if loaded.OOBMSE() != orig.OOBMSE() || loaded.VarExplained() != orig.VarExplained() {
		t.Fatal("OOB statistics differ")
	}
	lo1, hi1 := orig.ResponseRange()
	lo2, hi2 := loaded.ResponseRange()
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatal("response range differs")
	}

	// Importance ranking preserved exactly.
	a := orig.VariableImportance()
	b := loaded.VariableImportance()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("importance differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}

	// The loaded model has no training data: PD must refuse gracefully.
	if _, _, err := loaded.PartialDependence("x1", 10); err == nil {
		t.Fatal("partial dependence on a loaded model should error")
	}
	if _, _, _, _, err := loaded.PartialDependenceCI("x1", 10, 0.9); err == nil {
		t.Fatal("PD CI on a loaded model should error")
	}
}

func TestLoadRejectsCorruptModels(t *testing.T) {
	cases := []string{
		``,
		`{"version": 99}`,
		`{"version": 1, "names": ["a"], "trees": []}`,
		`{"version": 1, "names": [], "trees": [{"nodes":[{"f":-1,"v":1,"n":1}],"features":1}]}`,
		// Tree with an out-of-range child pointer.
		`{"version": 1, "names": ["a"], "importance":[0], "importance_se":[0], "purity":[0],
		  "trees": [{"nodes":[{"f":0,"t":1,"l":5,"r":6,"v":1,"n":2}],"features":1}]}`,
		// Tree splitting on a feature the model does not have.
		`{"version": 1, "names": ["a"], "importance":[0], "importance_se":[0], "purity":[0],
		  "trees": [{"nodes":[{"f":3,"t":1,"l":0,"r":0,"v":1,"n":2}],"features":4}]}`,
		// A null tree.
		`{"version": 1, "names": ["a"], "importance":[0], "importance_se":[0], "purity":[0],
		  "trees": [null]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
