package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// fitScaler trains a small ProblemScaler on the synthetic frame — the shared
// fixture for the persistence tests.
func fitScaler(t testing.TB, seed uint64) *ProblemScaler {
	t.Helper()
	frame := syntheticFrame(100, seed)
	a, err := Analyze(frame, quickConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewProblemScaler(a, 3, AutoModel)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// charGrid returns probe inputs spanning and exceeding the training sizes.
func charGrid() []map[string]float64 {
	var grid []map[string]float64
	for s := 32.0; s <= 8192; s *= 2 {
		grid = append(grid, map[string]float64{"size": s})
	}
	grid = append(grid, map[string]float64{"size": 100}, map[string]float64{"size": 5000})
	return grid
}

// TestCounterModelSaveLoadRoundTrip checks bit-identical Predict for both
// model kinds after the Export → JSON → ImportCounterModel cycle a bundle
// puts each counter model through.
func TestCounterModelSaveLoadRoundTrip(t *testing.T) {
	frame := syntheticFrame(80, 7)
	for _, kind := range []ModelKind{GLMModel, MARSModel} {
		orig, err := FitCounterModel(frame, "driver_counter", []string{"size"}, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		raw, err := json.Marshal(orig.Export())
		if err != nil {
			t.Fatalf("%v: save: %v", kind, err)
		}
		var e ExportedCounterModel
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%v: decode: %v", kind, err)
		}
		loaded, err := ImportCounterModel(&e)
		if err != nil {
			t.Fatalf("%v: load: %v", kind, err)
		}
		for s := 16.0; s <= 8192; s *= 2 {
			if got, want := loaded.Predict([]float64{s}), orig.Predict([]float64{s}); got != want {
				t.Fatalf("%v: prediction differs at size %v: %v != %v", kind, s, got, want)
			}
		}
		if loaded.Kind != orig.Kind || loaded.TrainR2 != orig.TrainR2 {
			t.Fatalf("%v: metadata differs after round trip", kind)
		}
	}
}

func TestImportCounterModelRejectsCorrupt(t *testing.T) {
	frame := syntheticFrame(80, 7)
	good, err := FitCounterModel(frame, "driver_counter", []string{"size"}, GLMModel)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(e *ExportedCounterModel){
		"nil":            nil,
		"no counter":     func(e *ExportedCounterModel) { e.Counter = "" },
		"no chars":       func(e *ExportedCounterModel) { e.Chars = nil; e.Scales = nil },
		"scale mismatch": func(e *ExportedCounterModel) { e.Scales = append(e.Scales, 1) },
		"zero scale":     func(e *ExportedCounterModel) { e.Scales[0] = 0 },
		"NaN scale":      func(e *ExportedCounterModel) { e.Scales[0] = math.NaN() },
		"unknown kind":   func(e *ExportedCounterModel) { e.Kind = "spline" },
		"kind w/o model": func(e *ExportedCounterModel) { e.Kind = "mars" },
		"basis mismatch": func(e *ExportedCounterModel) { e.GLM.Names = e.GLM.Names[:1]; e.GLM.Coef = e.GLM.Coef[:2] },
	}
	for name, corrupt := range cases {
		var e *ExportedCounterModel
		if corrupt != nil {
			e = good.Export()
			corrupt(e)
		}
		if _, err := ImportCounterModel(e); err == nil {
			t.Errorf("%s: corrupted counter model accepted", name)
		}
	}
}

// TestProblemScalerSaveLoadRoundTrip is the tentpole property: a loaded
// bundle answers PredictTime bit-identically to the fitted scaler on a grid
// of inputs, and exposes the same metadata.
func TestProblemScalerSaveLoadRoundTrip(t *testing.T) {
	orig := fitScaler(t, 6)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadProblemScaler(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if e := loaded.Reduced.Forest.Engine(); !strings.HasPrefix(e, "flat(") {
		t.Fatalf("loaded forest engine = %q, want flat(<enc>)", e)
	}

	for _, chars := range charGrid() {
		want, wantCounters, err := orig.PredictDetail(chars)
		if err != nil {
			t.Fatalf("original predict %v: %v", chars, err)
		}
		got, gotCounters, err := loaded.PredictDetail(chars)
		if err != nil {
			t.Fatalf("loaded predict %v: %v", chars, err)
		}
		if got != want {
			t.Fatalf("PredictTime differs at %v: %v != %v", chars, got, want)
		}
		if len(gotCounters) != len(wantCounters) {
			t.Fatalf("counter detail differs at %v", chars)
		}
		for name, w := range wantCounters {
			if gotCounters[name] != w {
				t.Fatalf("counter %s differs at %v", name, chars)
			}
		}
	}

	if loaded.Response() != orig.Response() {
		t.Fatal("response column differs")
	}
	if strings.Join(loaded.CharNames, ",") != strings.Join(orig.CharNames, ",") {
		t.Fatal("characteristic names differ")
	}
	if strings.Join(loaded.CounterNames(), ",") != strings.Join(orig.CounterNames(), ",") {
		t.Fatal("counter names differ")
	}
	if loaded.Reduced.TestR2 != orig.Reduced.TestR2 || loaded.Reduced.OOBMSE != orig.Reduced.OOBMSE {
		t.Fatal("validation statistics differ")
	}
	// Permutation importance is recomputed from the stored raw scores.
	if len(loaded.Reduced.Importance) != len(orig.Reduced.Importance) {
		t.Fatal("importance length differs")
	}
	for i, imp := range orig.Reduced.Importance {
		if loaded.Reduced.Importance[i] != imp {
			t.Fatalf("importance %d differs: %+v != %+v", i, loaded.Reduced.Importance[i], imp)
		}
	}
}

// TestSaveIsDeterministic: two saves of the same scaler are byte-identical,
// which the serving cache-hit test and the golden regression rely on.
func TestSaveIsDeterministic(t *testing.T) {
	ps := fitScaler(t, 6)
	var a, b bytes.Buffer
	if err := ps.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := ps.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same scaler differ")
	}
}

func TestSaveFileRoundTrip(t *testing.T) {
	ps := fitScaler(t, 6)
	path := t.TempDir() + "/model.json"
	if err := ps.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadProblemScalerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	chars := map[string]float64{"size": 1024}
	want, _ := ps.PredictTime(chars)
	got, err := loaded.PredictTime(chars)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("file round trip changed prediction: %v != %v", got, want)
	}
}

func TestImportBundleRejectsCorrupt(t *testing.T) {
	good := fitScaler(t, 6)
	counter := good.CounterNames()[0]
	cases := map[string]func(b *Bundle){
		"nil":             nil,
		"future version":  func(b *Bundle) { b.Version = BundleVersion + 1 },
		"zero version":    func(b *Bundle) { b.Version = 0 },
		"no response":     func(b *Bundle) { b.Response = "" },
		"no chars":        func(b *Bundle) { b.CharNames = nil },
		"no predictors":   func(b *Bundle) { b.Predictors = nil },
		"nil forest":      func(b *Bundle) { b.Forest = nil },
		"missing model":   func(b *Bundle) { delete(b.Models, counter) },
		"renamed model":   func(b *Bundle) { b.Models[counter].Counter = "impostor" },
		"char mismatch":   func(b *Bundle) { b.Models[counter].Chars = []string{"other"} },
		"predictor drift": func(b *Bundle) { b.Predictors[0] = b.Predictors[0] + "_x" },
	}
	for name, corrupt := range cases {
		var b *Bundle
		if corrupt != nil {
			// Round-trip through JSON for a deep copy to corrupt.
			raw, err := json.Marshal(good.Export())
			if err != nil {
				t.Fatal(err)
			}
			b = new(Bundle)
			if err := json.Unmarshal(raw, b); err != nil {
				t.Fatal(err)
			}
			corrupt(b)
		}
		if _, err := ImportBundle(b); err == nil {
			t.Errorf("%s: corrupted bundle accepted", name)
		}
	}
}

func TestLoadProblemScalerRejectsGarbage(t *testing.T) {
	for _, src := range []string{"", "not json", `{"version":`, `[1,2,3]`, `{"version":1}`} {
		if _, err := LoadProblemScaler(strings.NewReader(src)); err == nil {
			t.Errorf("garbage %q accepted", src)
		}
	}
}

// FuzzLoadBundle: arbitrary bytes must never panic the bundle loader — they
// either produce a working scaler or an error.
func FuzzLoadBundle(f *testing.F) {
	ps := fitScaler(f, 6)
	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	// Seed a structurally plausible but internally inconsistent bundle.
	f.Add([]byte(strings.Replace(string(valid), `"version":1`, `"version":1,"predictors":["x"]`, 1)))
	legacy, _ := legacyFixture(f)
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := LoadProblemScaler(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A bundle that loads must predict (or error) without panicking.
		chars := map[string]float64{"size": 512}
		want, wantErr := ps.PredictTime(chars)
		// Anything that loads must save, re-load and predict the same.
		var out bytes.Buffer
		if err := ps.Save(&out); err != nil {
			t.Fatalf("loaded bundle does not save: %v", err)
		}
		again, err := LoadProblemScaler(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("saved bundle does not re-load: %v", err)
		}
		got, gotErr := again.PredictTime(chars)
		if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("re-loaded bundle predicts %v (%v), loaded %v (%v)", got, gotErr, want, wantErr)
		}
	})
}

// pinnedPrediction is one PredictDetail answer, pinned as Float64bits.
type pinnedPrediction struct {
	Size        float64           `json:"size"`
	TimeBits    uint64            `json:"time_bits"`
	CounterBits map[string]uint64 `json:"counter_bits"`
}

// legacyFixture returns testdata/legacy_tree_bundle.json and its pinned
// PredictDetail answers over charGrid(), as Float64bits. The bundle is in
// the older per-node tree form (a forest with "trees" and no "flat"),
// written by Save before bundles switched to the flat encoding: 8 trees
// fitted on syntheticFrame(60, 21) with seed 21, top 3 predictors, GLM and
// MARS counter models. Save can no longer write this form, so the file is
// frozen; it keeps the tree-form reader covered.
func legacyFixture(t testing.TB) ([]byte, []pinnedPrediction) {
	t.Helper()
	bundle, err := os.ReadFile("testdata/legacy_tree_bundle.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/legacy_tree_bundle_predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var preds []pinnedPrediction
	if err := json.Unmarshal(raw, &preds); err != nil {
		t.Fatal(err)
	}
	return bundle, preds
}

// pinPredictions records ps's PredictDetail answers across charGrid().
func pinPredictions(t *testing.T, ps *ProblemScaler) []pinnedPrediction {
	t.Helper()
	var out []pinnedPrediction
	for _, chars := range charGrid() {
		got, counters, err := ps.PredictDetail(chars)
		if err != nil {
			t.Fatalf("predict %v: %v", chars, err)
		}
		p := pinnedPrediction{Size: chars["size"], TimeBits: math.Float64bits(got), CounterBits: map[string]uint64{}}
		for name, v := range counters {
			p.CounterBits[name] = math.Float64bits(v)
		}
		out = append(out, p)
	}
	return out
}

// checkPredictions requires ps to answer PredictDetail across charGrid()
// with exactly the pinned bits.
func checkPredictions(t *testing.T, ps *ProblemScaler, want []pinnedPrediction) {
	t.Helper()
	if got := pinPredictions(t, ps); !reflect.DeepEqual(got, want) {
		t.Fatalf("predictions differ from the pinned bits:\n got %+v\nwant %+v", got, want)
	}
}

// fitLegacyScaler refits the model the legacy fixture was written from.
func fitLegacyScaler(t *testing.T) *ProblemScaler {
	t.Helper()
	cfg := quickConfig(21)
	cfg.Forest.NTrees = 8
	a, err := Analyze(syntheticFrame(60, 21), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewProblemScaler(a, 3, AutoModel)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestQuantizedBundleRoundTrip: Save writes the quantized (flat-only forest)
// bundle. Refitting the legacy fixture's model, the saved bundle carries no
// per-node trees, is smaller than the same fit in the older tree form, still
// loads as version 1 through a flat(<enc>) engine, and answers PredictDetail
// with the fixture's pinned bits.
func TestQuantizedBundleRoundTrip(t *testing.T) {
	legacy, pinned := legacyFixture(t)
	orig := fitLegacyScaler(t)
	checkPredictions(t, orig, pinned)
	var quant bytes.Buffer
	if err := orig.Save(&quant); err != nil {
		t.Fatal(err)
	}
	var b Bundle
	if err := json.Unmarshal(quant.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Version != BundleVersion || len(b.Forest.Trees) != 0 || b.Forest.Flat == nil {
		t.Fatalf("saved bundle: version %d, %d trees, flat=%v; want version %d, flat only",
			b.Version, len(b.Forest.Trees), b.Forest.Flat != nil, BundleVersion)
	}
	if quant.Len() >= len(legacy) {
		t.Fatalf("quantized bundle is %d bytes, tree-form bundle %d", quant.Len(), len(legacy))
	}
	loaded, err := LoadProblemScaler(bytes.NewReader(quant.Bytes()))
	if err != nil {
		t.Fatalf("loading quantized bundle: %v", err)
	}
	if e := loaded.Reduced.Forest.Engine(); !strings.HasPrefix(e, "flat(") {
		t.Fatalf("quantized-loaded forest engine = %q, want flat(<enc>)", e)
	}
	checkPredictions(t, loaded, pinned)
	if loaded.Reduced.TestR2 != orig.Reduced.TestR2 || loaded.Reduced.OOBMSE != orig.Reduced.OOBMSE {
		t.Fatal("validation statistics differ")
	}
}

// TestSaveFileQuantizedRoundTrip: SaveFile writes the quantized bundle, and
// the file loads back predicting the same bits across the probe grid.
func TestSaveFileQuantizedRoundTrip(t *testing.T) {
	ps := fitScaler(t, 6)
	path := t.TempDir() + "/model-quant.json"
	if err := ps.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Forest.Trees) != 0 || b.Forest.Flat == nil {
		t.Fatalf("saved file has %d trees, flat=%v; want flat only", len(b.Forest.Trees), b.Forest.Flat != nil)
	}
	loaded, err := LoadProblemScalerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkPredictions(t, loaded, pinPredictions(t, ps))
}

// TestLegacyTreeBundle: a bundle in the older tree form still loads,
// predicts the bits it predicted when it was written, and serves through
// the flat engine compiled from its trees.
func TestLegacyTreeBundle(t *testing.T) {
	bundle, want := legacyFixture(t)
	var b Bundle
	if err := json.Unmarshal(bundle, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Forest.Trees) == 0 || b.Forest.Flat != nil {
		t.Fatalf("fixture is not tree-form: %d trees, flat=%v", len(b.Forest.Trees), b.Forest.Flat != nil)
	}
	ps, err := LoadProblemScaler(bytes.NewReader(bundle))
	if err != nil {
		t.Fatalf("loading legacy bundle: %v", err)
	}
	if e := ps.Reduced.Forest.Engine(); e != "flat" {
		t.Fatalf("legacy bundle engine = %q, want flat", e)
	}
	checkPredictions(t, ps, want)
}

// TestSaveOfLoadedBundleRoundTrips: for every bundle form Load accepts,
// saving the loaded scaler writes a bundle that loads again and predicts
// the same bits; a flat bundle re-saves byte for byte.
func TestSaveOfLoadedBundleRoundTrips(t *testing.T) {
	var flat bytes.Buffer
	if err := fitScaler(t, 6).Save(&flat); err != nil {
		t.Fatal(err)
	}
	legacy, legacyWant := legacyFixture(t)
	for _, tc := range []struct {
		name   string
		bundle []byte
		pinned []pinnedPrediction // nil: no pinned answers to check first
		exact  bool               // re-save must reproduce the input bytes
	}{
		{"flat", flat.Bytes(), nil, true},
		{"legacy-tree", legacy, legacyWant, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loaded, err := LoadProblemScaler(bytes.NewReader(tc.bundle))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if tc.pinned != nil {
				checkPredictions(t, loaded, tc.pinned)
			}
			want := pinPredictions(t, loaded)
			var resaved bytes.Buffer
			if err := loaded.Save(&resaved); err != nil {
				t.Fatalf("save of loaded bundle: %v", err)
			}
			var b Bundle
			if err := json.Unmarshal(resaved.Bytes(), &b); err != nil {
				t.Fatal(err)
			}
			if len(b.Forest.Trees) != 0 || b.Forest.Flat == nil {
				t.Fatalf("re-saved forest has %d trees, flat=%v; want flat only", len(b.Forest.Trees), b.Forest.Flat != nil)
			}
			again, err := LoadProblemScaler(bytes.NewReader(resaved.Bytes()))
			if err != nil {
				t.Fatalf("re-saved bundle does not load: %v", err)
			}
			checkPredictions(t, again, want)
			if tc.exact && !bytes.Equal(resaved.Bytes(), tc.bundle) {
				t.Fatalf("re-saved flat bundle differs from its input (%d vs %d bytes)", resaved.Len(), len(tc.bundle))
			}
		})
	}
}
