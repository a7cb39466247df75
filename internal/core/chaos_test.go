package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"blackforest/internal/faults"
	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
)

func chaosDevice(t testing.TB) *gpusim.Device {
	t.Helper()
	dev, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestChaosCollectFaultsOffBitIdentical(t *testing.T) {
	dev := chaosDevice(t)
	opt := CollectOptions{MaxSimBlocks: 8, Seed: 3}
	base, err := Collect(dev, collectRuns(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Faults = faults.New(faults.Config{Seed: 77}) // disabled profile → nil injector
	opt.Retries = 4
	frame, deg, err := CollectWithReport(dev, collectRuns(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if deg != nil {
		t.Fatalf("complete collection reported degradation: %+v", deg)
	}
	requireFramesEqual(t, "faults off vs baseline", base, frame)
}

func TestChaosCollectRetryMatchesFaultFree(t *testing.T) {
	dev := chaosDevice(t)
	base, err := Collect(dev, collectRuns(), CollectOptions{MaxSimBlocks: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := CollectOptions{
		MaxSimBlocks: 8, Seed: 3, Gate: profiler.NewGate(4),
		Faults:  faults.New(faults.Config{Seed: 21, RunFailure: 0.5}),
		Retries: 16,
	}
	frame, deg, err := CollectWithReport(dev, collectRuns(), opt)
	if err != nil {
		t.Fatalf("collection with retries did not recover: %v", err)
	}
	if deg != nil {
		t.Fatalf("run failures alone should not degrade columns: %+v", deg)
	}
	requireFramesEqual(t, "retried vs fault-free", base, frame)
}

func TestChaosCollectFailFast(t *testing.T) {
	dev := chaosDevice(t)
	opt := CollectOptions{
		MaxSimBlocks: 8, Seed: 3,
		Faults: faults.New(faults.Config{Seed: 21, RunFailure: 1}),
	}
	_, _, err := CollectWithReport(dev, collectRuns(), opt)
	if err == nil {
		t.Fatal("collection with runfail=1 and no retries succeeded")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error does not wrap ErrInjected: %v", err)
	}
}

func TestChaosCollectDropoutDegradesGracefully(t *testing.T) {
	dev := chaosDevice(t)
	base, err := Collect(dev, collectRuns(), CollectOptions{MaxSimBlocks: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := CollectOptions{
		MaxSimBlocks: 8, Seed: 3, Gate: profiler.NewGate(4),
		Faults:          faults.New(faults.Config{Seed: 8, CounterDropout: 0.25}),
		MinCompleteness: 0.8,
	}
	frame, deg, err := CollectWithReport(dev, collectRuns(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if deg == nil {
		t.Fatal("dropout=0.25 degraded nothing")
	}
	if deg.Rows != len(collectRuns()) || deg.MinCompleteness != 0.8 {
		t.Fatalf("degradation header wrong: %+v", deg)
	}
	if len(deg.Columns) == 0 {
		t.Fatal("degradation recorded no columns")
	}
	for _, c := range deg.Columns {
		switch c.Action {
		case "dropped":
			if c.Completeness >= 0.8 {
				t.Fatalf("column %q dropped at completeness %v ≥ threshold", c.Name, c.Completeness)
			}
			if frame.Has(c.Name) {
				t.Fatalf("dropped column %q still in frame", c.Name)
			}
		case "imputed":
			if c.Completeness < 0.8 || c.Completeness >= 1 {
				t.Fatalf("column %q imputed at completeness %v", c.Name, c.Completeness)
			}
		default:
			t.Fatalf("column %q has unknown action %q", c.Name, c.Action)
		}
	}
	// Every cell in the degraded frame is finite, and the response
	// columns are untouched by dropout.
	for _, name := range frame.Names() {
		for _, v := range frame.MustColumn(name) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite cell in column %q", name)
			}
		}
	}
	for _, resp := range []string{ResponseColumn, PowerColumn} {
		if !frame.Has(resp) {
			continue // may be constant-dropped only via keep list; Has must hold
		}
		want, got := base.MustColumn(resp), frame.MustColumn(resp)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("response column %q changed under dropout", resp)
		}
	}
	// The degraded frame still trains end to end.
	if frame.NumRows() >= 10 {
		if _, err := Analyze(frame, quickConfig(1)); err != nil {
			t.Fatalf("degraded frame does not train: %v", err)
		}
	}
}

func TestChaosStrictThresholdDropsEverythingIncomplete(t *testing.T) {
	dev := chaosDevice(t)
	opt := CollectOptions{
		MaxSimBlocks: 8, Seed: 3,
		Faults:          faults.New(faults.Config{Seed: 8, CounterDropout: 0.25}),
		MinCompleteness: 1,
	}
	frame, deg, err := CollectWithReport(dev, collectRuns(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if deg == nil {
		t.Fatal("expected degradation")
	}
	if n := len(deg.Imputed()); n != 0 {
		t.Fatalf("threshold 1 still imputed %d columns", n)
	}
	for _, name := range deg.Dropped() {
		if frame.Has(name) {
			t.Fatalf("dropped column %q survived", name)
		}
	}
}

// degradationFixture is a plausible record for persistence tests.
func degradationFixture() *Degradation {
	return &Degradation{
		MinCompleteness: 0.8,
		Rows:            64,
		Columns: []DegradedColumn{
			{Name: "gld_request", Completeness: 0.5, Action: "dropped"},
			{Name: "l1_global_load_hit", Completeness: 0.9, Action: "imputed", ImputedValue: 1234.5},
		},
	}
}

func TestDegradationRecordRoundTrip(t *testing.T) {
	ps := fitScaler(t, 6)
	ps.Degradation = degradationFixture()
	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadProblemScaler(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Degradation == nil {
		t.Fatal("degradation record lost in round trip")
	}
	if !reflect.DeepEqual(loaded.Degradation, ps.Degradation) {
		t.Fatalf("degradation drifted: %+v vs %+v", loaded.Degradation, ps.Degradation)
	}
	if got := loaded.Degradation.Dropped(); !reflect.DeepEqual(got, []string{"gld_request"}) {
		t.Fatalf("Dropped() = %v", got)
	}
	if got := loaded.Degradation.Imputed(); !reflect.DeepEqual(got, []string{"l1_global_load_hit"}) {
		t.Fatalf("Imputed() = %v", got)
	}
	if s := loaded.Degradation.String(); !strings.Contains(s, "gld_request") || !strings.Contains(s, "imputed") {
		t.Fatalf("summary %q omits the decisions", s)
	}
	var none *Degradation
	if s := none.String(); s != "complete collection" {
		t.Fatalf("nil degradation renders %q", s)
	}
}

func TestImportBundleRejectsBadDegradation(t *testing.T) {
	cases := map[string]*Degradation{
		"bad threshold":      {MinCompleteness: 1.5},
		"NaN threshold":      {MinCompleteness: math.NaN()},
		"negative rows":      {MinCompleteness: 0.8, Rows: -1},
		"empty column name":  {MinCompleteness: 0.8, Columns: []DegradedColumn{{Action: "dropped"}}},
		"unknown action":     {MinCompleteness: 0.8, Columns: []DegradedColumn{{Name: "x", Action: "zeroed"}}},
		"complete column":    {MinCompleteness: 0.8, Columns: []DegradedColumn{{Name: "x", Completeness: 1, Action: "imputed"}}},
		"non-finite imputed": {MinCompleteness: 0.8, Columns: []DegradedColumn{{Name: "x", Completeness: 0.9, Action: "imputed", ImputedValue: math.Inf(1)}}},
	}
	good := fitScaler(t, 6)
	for name, deg := range cases {
		b := good.Export()
		b.Degradation = deg
		if _, err := ImportBundle(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestChaosCorruptBundleLoad(t *testing.T) {
	ps := fitScaler(t, 6)
	ps.Degradation = degradationFixture()
	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Faults-off wrap is a passthrough: the bundle loads unchanged.
	off := faults.New(faults.Config{Seed: 5})
	if _, err := LoadProblemScaler(off.WrapReader(bytes.NewReader(valid), 1)); err != nil {
		t.Fatalf("passthrough load failed: %v", err)
	}

	// Corruption and truncation must surface as errors (or, for a lucky
	// flip inside a numeric literal, a loadable bundle) — never a panic.
	corrupt := faults.New(faults.Config{Seed: 5, CorruptReads: 1})
	trunc := faults.New(faults.Config{Seed: 5, TruncateReads: 1})
	corruptErrs, truncErrs := 0, 0
	for id := uint64(0); id < 16; id++ {
		if _, err := LoadProblemScaler(corrupt.WrapReader(bytes.NewReader(valid), id)); err != nil {
			corruptErrs++
		}
		if _, err := LoadProblemScaler(trunc.WrapReader(bytes.NewReader(valid), id)); err != nil {
			truncErrs++
		}
	}
	if corruptErrs == 0 {
		t.Fatal("16 corrupted loads all succeeded")
	}
	if truncErrs == 0 {
		t.Fatal("16 truncated loads all succeeded")
	}
	// Determinism: the same identity fails the same way twice.
	for id := uint64(0); id < 4; id++ {
		_, err1 := LoadProblemScaler(corrupt.WrapReader(bytes.NewReader(valid), id))
		_, err2 := LoadProblemScaler(corrupt.WrapReader(bytes.NewReader(valid), id))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("identity %d: corruption outcome not reproducible", id)
		}
	}
}

// FuzzLoadDegradedBundle: bundles carrying a degradation record must
// round-trip or error cleanly, never panic.
func FuzzLoadDegradedBundle(f *testing.F) {
	ps := fitScaler(f, 6)
	ps.Degradation = degradationFixture()
	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(strings.Replace(valid, `"action":"imputed"`, `"action":"zeroed"`, 1))
	f.Add(strings.Replace(valid, `"min_completeness":0.8`, `"min_completeness":80`, 1))
	f.Add(`{"version":1,"degradation":{"columns":[{}]}}`)
	f.Add(`{"version":1,"degradation":null}`)
	legacy, _ := legacyFixture(f)
	f.Add(string(legacy))
	f.Fuzz(func(t *testing.T, data string) {
		loaded, err := LoadProblemScaler(strings.NewReader(data))
		if err != nil {
			return
		}
		// Anything that loads must save and re-load with the degradation
		// record intact.
		var out bytes.Buffer
		if err := loaded.Save(&out); err != nil {
			t.Fatalf("loaded bundle does not save: %v", err)
		}
		again, err := LoadProblemScaler(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("saved bundle does not re-load: %v", err)
		}
		if !reflect.DeepEqual(again.Degradation, loaded.Degradation) {
			t.Fatal("degradation record drifted through save/load")
		}
	})
}
