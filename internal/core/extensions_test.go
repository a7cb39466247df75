package core

import (
	"strings"
	"testing"

	"blackforest/internal/dataset"
	"blackforest/internal/gpusim"
	"blackforest/internal/kernels"
	"blackforest/internal/profiler"
)

// collectMMQuick profiles a small matmul sweep for the extension tests.
func collectMMQuick(t *testing.T) *dataset.Frame {
	t.Helper()
	dev, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	var runs []profiler.Workload
	seed := uint64(1)
	for r := 0; r < 3; r++ {
		for n := 32; n <= 512; n *= 2 {
			seed++
			runs = append(runs, &kernels.MatMul{N: n, Seed: seed})
		}
	}
	frame, err := Collect(dev, runs, CollectOptions{MaxSimBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestPowerResponse(t *testing.T) {
	frame := collectMMQuick(t)
	if !frame.Has(PowerColumn) {
		t.Fatal("collected frame lacks power column")
	}
	// Power values must lie between idle draw and TDP.
	dev, _ := gpusim.LookupDevice("GTX580")
	for _, p := range frame.MustColumn(PowerColumn) {
		if p < dev.IdleWatts*0.8 || p > dev.TDPWatts*1.1 {
			t.Fatalf("implausible power %v W (idle %v, TDP %v)", p, dev.IdleWatts, dev.TDPWatts)
		}
	}

	cfg := quickConfig(1)
	cfg.Response = PowerColumn
	a, err := Analyze(frame, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.VarExplained < 0.5 {
		t.Fatalf("power model %%var explained %.2f", a.VarExplained)
	}
	// time_ms must not appear among the predictors (response leak).
	for _, p := range a.Predictors {
		if p == ResponseColumn || p == PowerColumn {
			t.Fatalf("response %s leaked into predictors", p)
		}
	}
	// The power scaler predicts watts for unseen sizes.
	ps, err := NewProblemScaler(a, 5, AutoModel)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ps.PredictTime(map[string]float64{"size": 192})
	if err != nil {
		t.Fatal(err)
	}
	if w < dev.IdleWatts*0.8 || w > dev.TDPWatts {
		t.Fatalf("predicted power %v W implausible", w)
	}
}

func TestKeplerMoreEfficientThanFermi(t *testing.T) {
	run := func(device string) float64 {
		dev, err := gpusim.LookupDevice(device)
		if err != nil {
			t.Fatal(err)
		}
		p := profiler.New(dev, profiler.Options{MaxSimBlocks: 8, NoiseSigma: -1})
		prof, err := p.Run(&kernels.MatMul{N: 512, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return prof.EnergyMJ
	}
	fermi := run("GTX580")
	kepler := run("K20m")
	if kepler >= fermi {
		t.Fatalf("28nm Kepler (%vmJ) should spend less energy than 40nm Fermi (%vmJ)", kepler, fermi)
	}
}

func TestAnalyzePCAFirst(t *testing.T) {
	frame := collectMMQuick(t)
	res, err := AnalyzePCAFirst(frame, quickConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Components < 1 {
		t.Fatal("no components retained")
	}
	// Predictors are component scores plus characteristics.
	sawPC, sawSize := false, false
	for _, p := range res.Predictors {
		if strings.HasPrefix(p, "PC") {
			sawPC = true
		}
		if p == "size" {
			sawSize = true
		}
	}
	if !sawPC || !sawSize {
		t.Fatalf("rotated predictor set wrong: %v", res.Predictors)
	}
	// PCA-first should still model the response well.
	if res.VarExplained < 0.5 {
		t.Fatalf("PCA-first %%var explained %.2f", res.VarExplained)
	}
}
