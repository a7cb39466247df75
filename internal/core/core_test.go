package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"blackforest/internal/dataset"
	"blackforest/internal/forest"
	"blackforest/internal/gpusim"
	"blackforest/internal/kernels"
	"blackforest/internal/obs"
	"blackforest/internal/profiler"
	"blackforest/internal/stats"
)

// syntheticFrame builds a frame that mimics collected data: size drives
// time and two counters deterministically; one counter is pure noise.
func syntheticFrame(n int, seed uint64) *dataset.Frame {
	rng := stats.NewRNG(seed)
	sizes := make([]float64, n)
	driver := make([]float64, n) // strongly predictive counter
	secondary := make([]float64, n)
	noise := make([]float64, n)
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		s := float64(64 * (1 + rng.Intn(64)))
		sizes[i] = s
		driver[i] = 3*s + rng.NormFloat64()
		secondary[i] = math.Sqrt(s) * 10
		noise[i] = rng.Float64() * 100
		times[i] = 0.001*s + 0.0001*secondary[i] + 0.002*rng.NormFloat64()
	}
	f, err := dataset.FromColumns(
		[]string{"size", "driver_counter", "secondary_counter", "noise_counter", ResponseColumn},
		[][]float64{sizes, driver, secondary, noise, times},
	)
	if err != nil {
		panic(err)
	}
	return f
}

func quickConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Forest = forest.Config{NTrees: 80}
	cfg.Seed = seed
	return cfg
}

func TestAnalyzeSyntheticData(t *testing.T) {
	frame := syntheticFrame(80, 1)
	a, err := Analyze(frame, quickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.VarExplained < 0.9 {
		t.Fatalf("%%var explained %.2f on clean synthetic data", a.VarExplained)
	}
	if a.TestR2 < 0.9 {
		t.Fatalf("test R² %.2f", a.TestR2)
	}
	// The noise counter must rank last.
	if a.Importance[len(a.Importance)-1].Name != "noise_counter" {
		t.Fatalf("noise counter not last: %v", a.Importance)
	}
	if a.Train.NumRows()+a.Test.NumRows() != frame.NumRows() {
		t.Fatal("split does not partition the frame")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	noresp, _ := dataset.FromColumns([]string{"a"}, [][]float64{make([]float64, 20)})
	if _, err := Analyze(noresp, quickConfig(1)); err == nil {
		t.Fatal("frame without response accepted")
	}
	tiny := syntheticFrame(5, 1)
	if _, err := Analyze(tiny, quickConfig(1)); err == nil {
		t.Fatal("too-small frame accepted")
	}
}

// TestAnalyzeWithPredictorsDefaultsConfig: an unset or out-of-range
// TrainFrac means the paper's 0.8 split in AnalyzeWithPredictors too, so
// the analysis equals the 0.8 one to the bit.
func TestAnalyzeWithPredictorsDefaultsConfig(t *testing.T) {
	frame := syntheticFrame(80, 4)
	predictors := []string{"size", "driver_counter", "noise_counter"}
	analyze := func(frac float64) *Analysis {
		t.Helper()
		cfg := quickConfig(4)
		cfg.TrainFrac = frac
		a, err := AnalyzeWithPredictors(frame, predictors, cfg)
		if err != nil {
			t.Fatalf("TrainFrac %v: %v", frac, err)
		}
		return a
	}
	want := analyze(0.8)
	for _, frac := range []float64{-1, 0} {
		got := analyze(frac)
		label := fmt.Sprintf("TrainFrac %v", frac)
		requireFramesEqual(t, label+" train", got.Train, want.Train)
		requireFramesEqual(t, label+" test", got.Test, want.Test)
		if math.Float64bits(got.OOBMSE) != math.Float64bits(want.OOBMSE) ||
			math.Float64bits(got.TestMSE) != math.Float64bits(want.TestMSE) {
			t.Fatalf("%s: OOB MSE %v test MSE %v, want %v / %v", label, got.OOBMSE, got.TestMSE, want.OOBMSE, want.TestMSE)
		}
		for i, imp := range want.Importance {
			if got.Importance[i].Name != imp.Name || math.Float64bits(got.Importance[i].IncMSE) != math.Float64bits(imp.IncMSE) {
				t.Fatalf("%s: importance %d is %+v, want %+v", label, i, got.Importance[i], imp)
			}
		}
	}
}

func TestReduceRetainsPower(t *testing.T) {
	frame := syntheticFrame(80, 2)
	a, err := Analyze(frame, quickConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	reduced, retained, err := a.Reduce(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reduced.Predictors) != 2 {
		t.Fatalf("reduced to %d predictors", len(reduced.Predictors))
	}
	if !retained {
		t.Fatalf("top-2 model lost power: full %.3f reduced %.3f", a.TestR2, reduced.TestR2)
	}
}

func TestTopDistinctPredictors(t *testing.T) {
	// driver_dup is a perfect copy of driver_counter and must collapse.
	rng := stats.NewRNG(3)
	n := 60
	driver := make([]float64, n)
	dup := make([]float64, n)
	other := make([]float64, n)
	times := make([]float64, n)
	for i := range driver {
		driver[i] = rng.Float64() * 100
		dup[i] = driver[i] * 2 // perfectly correlated
		other[i] = rng.Float64() * 10
		times[i] = driver[i] + other[i]
	}
	frame, _ := dataset.FromColumns(
		[]string{"driver_counter", "driver_dup", "other", ResponseColumn},
		[][]float64{driver, dup, other, times},
	)
	a, err := Analyze(frame, quickConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	top := a.TopDistinctPredictors(2, 0.999)
	if len(top) != 2 {
		t.Fatalf("got %v", top)
	}
	if (top[0] == "driver_counter" && top[1] == "driver_dup") ||
		(top[0] == "driver_dup" && top[1] == "driver_counter") {
		t.Fatalf("correlated duplicates both retained: %v", top)
	}
}

func TestBottlenecksClassification(t *testing.T) {
	frame := syntheticFrame(80, 4)
	a, err := Analyze(frame, quickConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	bns, err := a.Bottlenecks(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bns) != 3 {
		t.Fatalf("got %d bottlenecks", len(bns))
	}
	// The top driver rises with time: direction must be positive.
	foundPositive := false
	for _, b := range bns {
		if b.Counter == "driver_counter" || b.Counter == "size" {
			if b.Direction == Positive {
				foundPositive = true
			}
		}
		if b.Pattern == "" || b.Remedy == "" {
			t.Fatalf("missing classification for %s", b.Counter)
		}
	}
	if !foundPositive {
		t.Fatalf("no positive direction found among drivers: %+v", bns)
	}
	if Positive.String() != "positive" || Negative.String() != "negative" || Mixed.String() != "mixed" {
		t.Fatal("direction names wrong")
	}
}

func TestPCARefine(t *testing.T) {
	frame := syntheticFrame(80, 5)
	a, err := Analyze(frame, quickConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := a.PCARefine(false)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Components < 1 || ref.ExplainedVariance < 0.9 {
		t.Fatalf("refinement: %d comps, %.2f var", ref.Components, ref.ExplainedVariance)
	}
	if len(ref.Labels) != ref.Components {
		t.Fatal("labels/components mismatch")
	}
	// "size" must be excluded from PCA when includeChars is false.
	for _, ld := range ref.Loadings[0] {
		if ld.Variable == "size" {
			t.Fatal("characteristic leaked into PCA")
		}
	}
}

func TestProblemScalerSynthetic(t *testing.T) {
	frame := syntheticFrame(100, 6)
	a, err := Analyze(frame, quickConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewProblemScaler(a, 3, AutoModel)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ps.Evaluate(a.Test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.R2 < 0.8 {
		t.Fatalf("characteristic-only prediction R² %.3f", ev.R2)
	}
	// Size-driven counters must model near-perfectly; the pure-noise
	// counter (if retained after dedup) rightly cannot.
	for name, m := range ps.Models {
		if name != "noise_counter" && m.TrainR2 < 0.95 {
			t.Fatalf("counter model for %s weak: %.3f", name, m.TrainR2)
		}
	}
	if _, err := ps.PredictTime(map[string]float64{"wrong": 1}); err == nil {
		t.Fatal("missing characteristic accepted")
	}
}

func TestFitCounterModelKinds(t *testing.T) {
	frame := syntheticFrame(80, 7)
	g, err := FitCounterModel(frame, "driver_counter", []string{"size"}, GLMModel)
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != "glm" || g.TrainR2 < 0.99 {
		t.Fatalf("GLM on linear counter: %+v", g)
	}
	m, err := FitCounterModel(frame, "driver_counter", []string{"size"}, MARSModel)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != "mars" || m.TrainR2 < 0.99 {
		t.Fatalf("MARS on linear counter: kind=%s R²=%v", m.Kind, m.TrainR2)
	}
}

func TestCollectEndToEnd(t *testing.T) {
	dev, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	var runs []profiler.Workload
	for i, n := range []int{4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576, 2097152, 65536, 16384} {
		runs = append(runs, &kernels.Reduction{Variant: 2, N: n, BlockSize: 256, Seed: uint64(i)})
	}
	frame, err := Collect(dev, runs, CollectOptions{MaxSimBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if frame.NumRows() != len(runs) {
		t.Fatalf("collected %d rows", frame.NumRows())
	}
	if !frame.Has(ResponseColumn) || !frame.Has("size") {
		t.Fatal("schema missing response or characteristics")
	}
	// No constant columns should survive.
	for _, name := range frame.Names() {
		if name == ResponseColumn {
			continue
		}
		col := frame.MustColumn(name)
		if stats.Variance(col) == 0 {
			t.Fatalf("constant column %s survived collection", name)
		}
	}
	if _, err := Collect(dev, nil, CollectOptions{}); err == nil {
		t.Fatal("empty run list accepted")
	}
}

// collectRuns builds a fresh reduction sweep (workloads are released by
// Collect, so every Collect call gets its own instances).
func collectRuns() []profiler.Workload {
	var runs []profiler.Workload
	for i, n := range []int{4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288} {
		runs = append(runs, &kernels.Reduction{Variant: 2, N: n, BlockSize: 256, Seed: uint64(i + 1)})
	}
	return runs
}

// requireFramesEqual fails unless the two frames are bit-for-bit identical.
func requireFramesEqual(t *testing.T, label string, a, b *dataset.Frame) {
	t.Helper()
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		t.Fatalf("%s: %d vs %d columns", label, len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("%s: column %d is %q vs %q", label, i, an[i], bn[i])
		}
	}
	for _, name := range an {
		ca, cb := a.MustColumn(name), b.MustColumn(name)
		if len(ca) != len(cb) {
			t.Fatalf("%s: column %s has %d vs %d rows", label, name, len(ca), len(cb))
		}
		for r := range ca {
			if ca[r] != cb[r] {
				t.Fatalf("%s: %s[%d] = %v vs %v", label, name, r, ca[r], cb[r])
			}
		}
	}
}

func TestCollectWorkersBitIdentical(t *testing.T) {
	dev, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	opt := CollectOptions{MaxSimBlocks: 8, Seed: 3, Gate: profiler.NewGate(1)}
	ref, err := Collect(dev, collectRuns(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// A nil gate lets the collection size its own; size 0 selects NumCPU.
	for _, gate := range []profiler.Gate{nil, profiler.NewGate(0), profiler.NewGate(2), profiler.NewGate(4), profiler.NewGate(16)} {
		opt.Gate = gate
		frame, err := Collect(dev, collectRuns(), opt)
		if err != nil {
			t.Fatal(err)
		}
		requireFramesEqual(t, fmt.Sprintf("gate size %d vs 1", gate.Size()), ref, frame)
	}
}

func TestCollectOrderIndependent(t *testing.T) {
	dev, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	opt := CollectOptions{MaxSimBlocks: 8, Seed: 3, Gate: profiler.NewGate(4)}
	forward, err := Collect(dev, collectRuns(), opt)
	if err != nil {
		t.Fatal(err)
	}
	runs := collectRuns()
	for i, j := 0, len(runs)-1; i < j; i, j = i+1, j-1 {
		runs[i], runs[j] = runs[j], runs[i]
	}
	reversed, err := Collect(dev, runs, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Rows follow input order, so match them by the (unique) size
	// characteristic; every cell must then agree exactly.
	rowBySize := map[float64]int{}
	for r, s := range reversed.MustColumn("size") {
		rowBySize[s] = r
	}
	for _, name := range forward.Names() {
		cf, cr := forward.MustColumn(name), reversed.MustColumn(name)
		for r, s := range forward.MustColumn("size") {
			rr, ok := rowBySize[s]
			if !ok {
				t.Fatalf("size %v missing from reversed collection", s)
			}
			if cf[r] != cr[rr] {
				t.Fatalf("%s at size %v: %v (forward) vs %v (reversed)", name, s, cf[r], cr[rr])
			}
		}
	}
}

func TestCollectPairMatchesSequential(t *testing.T) {
	devA, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	devB, err := gpusim.LookupDevice("K20m")
	if err != nil {
		t.Fatal(err)
	}
	optA := CollectOptions{MaxSimBlocks: 8, Seed: 5}
	optB := CollectOptions{MaxSimBlocks: 8, Seed: 6}
	seqA, err := Collect(devA, collectRuns(), optA)
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := Collect(devB, collectRuns(), optB)
	if err != nil {
		t.Fatal(err)
	}
	pairA, pairB, err := CollectPair(devA, collectRuns(), optA, devB, collectRuns(), optB)
	if err != nil {
		t.Fatal(err)
	}
	requireFramesEqual(t, "device A", seqA, pairA)
	requireFramesEqual(t, "device B", seqB, pairB)

	if _, _, err := CollectPair(devA, nil, optA, devB, collectRuns(), optB); err == nil {
		t.Fatal("empty device-A run list accepted")
	}
}

// TestCollectPairSharesOneGate: without gates, CollectPair drains both
// devices' runs through one shared gate — no slot is ever held by two
// runs at once, across either side — and each frame still matches a
// standalone Collect.
func TestCollectPairSharesOneGate(t *testing.T) {
	devA, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	devB, err := gpusim.LookupDevice("K20m")
	if err != nil {
		t.Fatal(err)
	}
	// A logical clock orders each slot holder's span end before the next
	// holder's start, so overlap on a lane means two concurrent holders.
	var tick atomic.Int64
	tracer := obs.NewTracer(func() int64 { return tick.Add(1) })
	optA := CollectOptions{MaxSimBlocks: 8, Seed: 5, Tracer: tracer}
	optB := CollectOptions{MaxSimBlocks: 8, Seed: 6, Tracer: tracer}
	pairA, pairB, err := CollectPair(devA, collectRuns(), optA, devB, collectRuns(), optB)
	if err != nil {
		t.Fatal(err)
	}
	optA.Tracer, optB.Tracer = nil, nil
	soloA, err := Collect(devA, collectRuns(), optA)
	if err != nil {
		t.Fatal(err)
	}
	soloB, err := Collect(devB, collectRuns(), optB)
	if err != nil {
		t.Fatal(err)
	}
	requireFramesEqual(t, "device A", soloA, pairA)
	requireFramesEqual(t, "device B", soloB, pairB)

	byLane := map[int][]obs.Event{}
	runs := 0
	for _, ev := range tracer.Events() {
		if ev.Phase != 'X' || !strings.HasPrefix(ev.Name, "run ") {
			continue
		}
		if ev.Lane < 0 || ev.Lane >= runtime.NumCPU() {
			t.Fatalf("run on lane %d, outside a NumCPU gate", ev.Lane)
		}
		byLane[ev.Lane] = append(byLane[ev.Lane], ev)
		runs++
	}
	if runs != 2*len(collectRuns()) {
		t.Fatalf("traced %d runs, want %d", runs, 2*len(collectRuns()))
	}
	for lane, evs := range byLane {
		sort.Slice(evs, func(i, j int) bool { return evs[i].StartNS < evs[j].StartNS })
		for i := 1; i < len(evs); i++ {
			if evs[i].StartNS < evs[i-1].StartNS+evs[i-1].DurNS {
				t.Fatalf("slot %d held by %s and %s at once", lane, evs[i-1].Name, evs[i].Name)
			}
		}
	}
}

func TestInjectMachineCharacteristics(t *testing.T) {
	frame := syntheticFrame(20, 8)
	dev, _ := gpusim.LookupDevice("K20m")
	out, err := InjectMachineCharacteristics(frame, dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range gpusim.HardwareMetricNames() {
		if !out.Has(name) {
			t.Fatalf("metric %s not injected", name)
		}
	}
	smp, _ := out.Column("smp")
	if smp[0] != 13 {
		t.Fatalf("smp = %v, want 13", smp[0])
	}
	// Original frame untouched.
	if frame.Has("smp") {
		t.Fatal("injection mutated the input frame")
	}
}

func TestHardwareScaleSynthetic(t *testing.T) {
	// Two "devices" with the same mechanism but different speed constants.
	mkFrame := func(scale float64, seed uint64) *dataset.Frame {
		rng := stats.NewRNG(seed)
		n := 60
		sizes := make([]float64, n)
		counter := make([]float64, n)
		times := make([]float64, n)
		for i := 0; i < n; i++ {
			s := float64(64 * (1 + rng.Intn(32)))
			sizes[i] = s
			counter[i] = 2 * s
			times[i] = scale*0.001*s + 0.0005*rng.NormFloat64()
		}
		f, _ := dataset.FromColumns(
			[]string{"size", "gld_request", ResponseColumn},
			[][]float64{sizes, counter, times},
		)
		return f
	}
	devA, _ := gpusim.LookupDevice("GTX580")
	devB, _ := gpusim.LookupDevice("K20m")
	hw, err := HardwareScale(mkFrame(1, 1), mkFrame(2, 2), devA, devB, quickConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if hw.TrainDevice != "GTX580" || hw.TargetDevice != "K20m" {
		t.Fatal("device names wrong")
	}
	if hw.Straightforward == nil || hw.Mixed == nil {
		t.Fatal("evaluations missing")
	}
	if hw.Straightforward.R2 < 0.5 {
		t.Fatalf("hardware scaling R² %.3f on clean synthetic data", hw.Straightforward.R2)
	}
	if len(hw.MixedVariables) == 0 {
		t.Fatal("no mixed variables")
	}
}
