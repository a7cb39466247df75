package core

import (
	"fmt"
	"sort"
	"sync"

	"blackforest/internal/dataset"
	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
	"blackforest/internal/stats"
)

// CollectPair profiles two devices' sweeps concurrently — the §6.2
// hardware-scaling experiments profile the same workload sweep on both
// GPUs, and the two collections are fully independent. When neither
// option sets a Gate, both sides share one gate of NumCPU slots, so the
// pair saturates the host without oversubscribing it. Each frame is
// bit-for-bit what a standalone Collect with the same options would
// produce.
func CollectPair(
	devA *gpusim.Device, runsA []profiler.Workload, optA CollectOptions,
	devB *gpusim.Device, runsB []profiler.Workload, optB CollectOptions,
) (*dataset.Frame, *dataset.Frame, error) {
	if optA.Gate == nil && optB.Gate == nil {
		optA.Gate = profiler.NewGate(0)
		optB.Gate = optA.Gate
	}
	var (
		frameA, frameB *dataset.Frame
		errA, errB     error
		wg             sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		frameA, errA = Collect(devA, runsA, optA)
	}()
	go func() {
		defer wg.Done()
		frameB, errB = Collect(devB, runsB, optB)
	}()
	wg.Wait()
	if errA != nil {
		return nil, nil, fmt.Errorf("%s sweep: %w", devA.Name, errA)
	}
	if errB != nil {
		return nil, nil, fmt.Errorf("%s sweep: %w", devB.Name, errB)
	}
	return frameA, frameB, nil
}

// InjectMachineCharacteristics returns the frame extended with the Table 2
// hardware metrics of the device as constant columns — the §6.2 step that
// lets one forest reason across GPUs.
func InjectMachineCharacteristics(frame *dataset.Frame, dev *gpusim.Device) (*dataset.Frame, error) {
	out, err := frame.Select(frame.Names()...)
	if err != nil {
		return nil, err
	}
	metrics := dev.HardwareMetrics()
	for _, name := range gpusim.HardwareMetricNames() {
		if err := out.AddConstColumn(name, metrics[name]); err != nil {
			return nil, fmt.Errorf("core: injecting %s: %w", name, err)
		}
	}
	return out, nil
}

// commonColumns returns the column names present in both frames, in a's
// order.
func commonColumns(a, b *dataset.Frame) []string {
	var out []string
	for _, n := range a.Names() {
		if b.Has(n) {
			out = append(out, n)
		}
	}
	return out
}

// HWScaling is the result of a hardware-scaling experiment: predicting a
// kernel's execution times on a target GPU from a forest trained on a
// different (similar) GPU plus a small calibration set from the target.
type HWScaling struct {
	TrainDevice  string
	TargetDevice string

	// TrainImportance and TargetImportance are the per-device rankings
	// used by the similarity test (each from a forest trained on that
	// device's data alone, over the common counter vocabulary).
	TrainImportance  []string
	TargetImportance []string
	// Similarity is the rank correlation of variable importance between
	// the devices; Similar applies the threshold (the paper's
	// "sufficiently similar hardware" test).
	Similarity float64
	Similar    bool

	// Straightforward is the §6.2 default: forest trained on the
	// training device + calibration rows, using the training device's
	// important variables, evaluated on the target's held-out rows.
	Straightforward *Evaluation
	// MixedVariables is the workaround predictor set (union of both
	// devices' top variables, as used for NW in Fig. 8(c)).
	MixedVariables []string
	// Mixed is the evaluation with the mixed predictor set.
	Mixed *Evaluation
}

// similarityThreshold is the rank correlation above which two devices
// count as "sufficiently similar" for straightforward hardware scaling.
const similarityThreshold = 0.5

// HardwareScale runs the §6.2 experiment. frameTrain/frameTarget are the
// collected frames (without machine characteristics — they are injected
// here) for the same workload sweep on the two devices.
func HardwareScale(frameTrain, frameTarget *dataset.Frame, devTrain, devTarget *gpusim.Device, cfg Config) (*HWScaling, error) {
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		cfg.TrainFrac = 0.8
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 7
	}
	ft, err := InjectMachineCharacteristics(frameTrain, devTrain)
	if err != nil {
		return nil, err
	}
	fg, err := InjectMachineCharacteristics(frameTarget, devTarget)
	if err != nil {
		return nil, err
	}

	// Per-device analyses for the similarity test run over each device's
	// FULL counter vocabulary — this is where the paper's §7 counter-
	// evolution problem surfaces: a variable important on Fermi (e.g.
	// l1_global_load_miss for NW) may not exist at all on Kepler.
	at, err := Analyze(ft, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: analyzing %s data: %w", devTrain.Name, err)
	}
	ag, err := Analyze(fg, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: analyzing %s data: %w", devTarget.Name, err)
	}

	// The cross-device forest can only use the shared vocabulary.
	common := commonColumns(ft, fg)
	ft, err = ft.Select(common...)
	if err != nil {
		return nil, err
	}
	fg, err = fg.Select(common...)
	if err != nil {
		return nil, err
	}

	hw := &HWScaling{
		TrainDevice:      devTrain.Name,
		TargetDevice:     devTarget.Name,
		TrainImportance:  at.TopPredictors(cfg.TopK),
		TargetImportance: ag.TopPredictors(cfg.TopK),
	}
	hw.Similarity = importanceRankCorrelation(at, ag)
	hw.Similar = hw.Similarity >= similarityThreshold

	// Calibration: the target's training split joins the training pool.
	// The split replays Analyze's RNG stream so the restricted frame
	// partitions into the same rows ag used.
	calib, test, err := fg.Split(stats.NewRNG(cfg.Seed^0x5b117), cfg.TrainFrac)
	if err != nil {
		return nil, err
	}
	pool, err := ft.Bind(calib)
	if err != nil {
		return nil, err
	}

	// Straightforward prediction: the training device's top variables
	// (plus machine characteristics, which now vary across the pool).
	straightVars := withMachineChars(hw.TrainImportance)
	hw.Straightforward, err = fitAndEvaluate(pool, test, straightVars, cfg)
	if err != nil {
		return nil, err
	}

	// Mixed-variable workaround: union of both devices' top variables.
	hw.MixedVariables = unionPreservingOrder(hw.TrainImportance, hw.TargetImportance)
	hw.Mixed, err = fitAndEvaluate(pool, test, withMachineChars(hw.MixedVariables), cfg)
	if err != nil {
		return nil, err
	}
	return hw, nil
}

// fitAndEvaluate trains a forest on pool over the given predictors and
// scores it on the test rows.
func fitAndEvaluate(pool, test *dataset.Frame, predictors []string, cfg Config) (*Evaluation, error) {
	// Guard against predictors missing from the pool (e.g. dropped as
	// constant in one device's frame).
	var usable []string
	for _, p := range predictors {
		if pool.Has(p) && test.Has(p) {
			usable = append(usable, p)
		}
	}
	if len(usable) == 0 {
		return nil, fmt.Errorf("core: no usable predictors among %v", predictors)
	}
	a, err := analyzeSplit(pool, pool, test, usable, cfg)
	if err != nil {
		return nil, err
	}
	pred, actual, err := a.PredictFrame(test)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Predicted: pred, Actual: actual}
	if test.Has("size") {
		sizes := test.MustColumn("size")
		for i := range pred {
			ev.Chars = append(ev.Chars, map[string]float64{"size": sizes[i]})
		}
	}
	ev.MSE = stats.MSE(pred, actual)
	ev.R2 = stats.RSquared(pred, actual)
	return ev, nil
}

// withMachineChars appends the Table 2 metric names to a predictor list
// (deduplicated).
func withMachineChars(vars []string) []string {
	return unionPreservingOrder(vars, gpusim.HardwareMetricNames())
}

// unionPreservingOrder merges b into a, keeping first-seen order.
func unionPreservingOrder(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range append(append([]string(nil), a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// importanceRankCorrelation computes the Spearman rank correlation between
// two analyses' importance rankings over their shared predictors.
func importanceRankCorrelation(a, b *Analysis) float64 {
	rankOf := func(an *Analysis) map[string]float64 {
		m := make(map[string]float64, len(an.Importance))
		for i, imp := range an.Importance {
			m[imp.Name] = float64(i)
		}
		return m
	}
	ra, rb := rankOf(a), rankOf(b)
	var names []string
	for n := range ra {
		if _, ok := rb[n]; ok {
			names = append(names, n)
		}
	}
	if len(names) < 3 {
		return 0
	}
	sort.Strings(names)
	xs := make([]float64, len(names))
	ys := make([]float64, len(names))
	for i, n := range names {
		xs[i] = ra[n]
		ys[i] = rb[n]
	}
	return stats.Correlation(xs, ys)
}
