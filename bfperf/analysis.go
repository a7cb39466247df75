package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"

	"blackforest/internal/core"
	"blackforest/internal/dataset"
	"blackforest/internal/experiments"
	"blackforest/internal/gpusim"
	"blackforest/internal/obs"
	"blackforest/internal/profiler"
	"blackforest/internal/runcache"
)

// The paper's devices: every study trains on the Fermi board, and hardware
// scaling predicts the Kepler board.
const (
	trainDevice  = "GTX580"
	targetDevice = "K20m"
)

// Quick-scale settings, as experiments.Quick uses them.
const (
	quickTrees     = 120
	quickSimBlocks = 8
	bottleneckTopK = 8
)

// analysis runs the paper's study set through core's public calls. One
// value serves a whole benchmark run: every pass shares its simulation
// gate, and each pass brings its own run cache.
type analysis struct {
	seed     uint64
	opts     experiments.Options
	cfg      core.Config
	gate     profiler.Gate
	gtx, k20 *gpusim.Device
}

func newAnalysis(seed uint64, slots int) (*analysis, error) {
	gtx, err := gpusim.LookupDevice(trainDevice)
	if err != nil {
		return nil, err
	}
	k20, err := gpusim.LookupDevice(targetDevice)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Forest.NTrees = quickTrees
	cfg.Seed = seed
	return &analysis{
		seed: seed,
		opts: experiments.Options{Scale: experiments.Quick, Seed: seed},
		cfg:  cfg,
		gate: profiler.NewGate(slots),
		gtx:  gtx,
		k20:  k20,
	}, nil
}

// passResult is what one pass produced.
type passResult struct {
	// digest hashes every output of the pass: importance orders,
	// bottleneck lists, PCA summaries, bundle bytes and evaluation
	// predictions. Every pass of one seed must reproduce it exactly.
	digest string
	// apes are the absolute % errors of every held-out prediction of both
	// problem scalers and both hardware-scaling evaluations.
	apes []float64
	// scalers are the pass's fitted problem scalers, for the traced run's
	// replay of NewProblemScaler's two halves.
	scalers     []fittedScaler
	bundleBytes int
	// cache is the run cache the pass used, and stats its counters right
	// after the pass.
	cache *runcache.Cache[*profiler.Profile]
	stats runcache.Stats
}

// fittedScaler is one problem-scaling study's model with what built it.
type fittedScaler struct {
	analysis *core.Analysis
	scaler   *core.ProblemScaler
	kind     core.ModelKind
	eval     *core.Evaluation
	bundle   []byte
}

// pass runs the study set once against cache. rec, when non-nil, records
// a span around every public call.
func (a *analysis) pass(cache *runcache.Cache[*profiler.Profile], rec *recorder) (*passResult, error) {
	h := sha256.New()
	res := &passResult{}
	for _, v := range []int{1, 2, 6} {
		if err := a.reduction(v, cache, rec, h); err != nil {
			return nil, fmt.Errorf("reduce%d: %w", v, err)
		}
	}
	for _, ps := range []struct {
		runs []profiler.Workload
		kind core.ModelKind
	}{
		{experiments.MatMulSweep(a.opts), core.AutoModel},
		{experiments.NWSweep(a.opts), core.MARSModel},
	} {
		fs, err := a.problemScaling(ps.runs, ps.kind, cache, rec)
		if err != nil {
			return nil, fmt.Errorf("%s problem scaling: %w", ps.runs[0].Name(), err)
		}
		h.Write(fs.bundle)
		hashFloats(h, fs.eval.Predicted)
		res.scalers = append(res.scalers, *fs)
		res.bundleBytes += len(fs.bundle)
		for i, p := range fs.eval.Predicted {
			res.apes = append(res.apes, ape(p, fs.eval.Actual[i]))
		}
	}
	for _, sweep := range []func(experiments.Options) []profiler.Workload{experiments.MatMulSweep, experiments.NWSweep} {
		ev, err := a.hardwareScaling(sweep(a.opts), sweep(a.opts), cache, rec, h)
		if err != nil {
			return nil, fmt.Errorf("hardware scaling: %w", err)
		}
		for i, p := range ev.Predicted {
			res.apes = append(res.apes, ape(p, ev.Actual[i]))
		}
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// traced runs f inside a benchmark span named name.
func traced[T any](rec *recorder, name string, f func() (T, error)) (T, error) {
	sp := rec.begin(name)
	defer sp.End()
	return f()
}

// collectOptions are the pass's collection settings for one device side.
func (a *analysis) collectOptions(cache *runcache.Cache[*profiler.Profile], seed uint64, tracer *obs.Tracer) core.CollectOptions {
	return core.CollectOptions{MaxSimBlocks: quickSimBlocks, Seed: seed, Cache: cache, Gate: a.gate, Tracer: tracer}
}

// collect profiles one sweep on one device.
func (a *analysis) collect(dev *gpusim.Device, runs []profiler.Workload, cache *runcache.Cache[*profiler.Profile], rec *recorder) (*dataset.Frame, error) {
	return traced(rec, "collect", func() (*dataset.Frame, error) {
		frame, deg, err := core.CollectWithReport(dev, runs, a.collectOptions(cache, a.seed, rec.side(dev, a.seed, runs)))
		if err == nil && deg != nil {
			err = fmt.Errorf("collection degraded: %s", deg)
		}
		return frame, err
	})
}

// reduction is the §5 bottleneck analysis of one reduction variant.
func (a *analysis) reduction(variant int, cache *runcache.Cache[*profiler.Profile], rec *recorder, h hash.Hash) error {
	frame, err := a.collect(a.gtx, experiments.ReductionSweep(variant, a.opts), cache, rec)
	if err != nil {
		return err
	}
	an, err := traced(rec, "analyze", func() (*core.Analysis, error) { return core.Analyze(frame, a.cfg) })
	if err != nil {
		return err
	}
	bns, err := traced(rec, "bottlenecks", func() ([]core.Bottleneck, error) { return an.Bottlenecks(bottleneckTopK) })
	if err != nil {
		return err
	}
	ref, err := traced(rec, "pca", func() (*core.PCARefinement, error) { return an.PCARefine(false) })
	if err != nil {
		return err
	}
	for _, imp := range an.Importance {
		hashString(h, imp.Name)
	}
	for _, b := range bns {
		hashString(h, b.Counter)
		hashString(h, b.Direction.String())
		hashString(h, b.Pattern)
	}
	hashFloats(h, []float64{float64(ref.Components), ref.ExplainedVariance})
	for _, l := range ref.Labels {
		hashString(h, l)
	}
	return nil
}

// problemScaling is one §6.1 study: collect, analyze, fit the problem
// scaler, evaluate it on the held-out rows, and round-trip its bundle.
func (a *analysis) problemScaling(runs []profiler.Workload, kind core.ModelKind, cache *runcache.Cache[*profiler.Profile], rec *recorder) (*fittedScaler, error) {
	frame, err := a.collect(a.gtx, runs, cache, rec)
	if err != nil {
		return nil, err
	}
	an, err := traced(rec, "analyze", func() (*core.Analysis, error) { return core.Analyze(frame, a.cfg) })
	if err != nil {
		return nil, err
	}
	ps, err := traced(rec, "scaler", func() (*core.ProblemScaler, error) { return core.NewProblemScaler(an, a.cfg.TopK, kind) })
	if err != nil {
		return nil, err
	}
	ev, err := traced(rec, "evaluate", func() (*core.Evaluation, error) { return ps.Evaluate(an.Test) })
	if err != nil {
		return nil, err
	}
	bundle, err := traced(rec, "bundle_save", func() ([]byte, error) {
		var buf bytes.Buffer
		err := ps.Save(&buf)
		return buf.Bytes(), err
	})
	if err != nil {
		return nil, err
	}
	loaded, err := traced(rec, "bundle_load", func() (*core.ProblemScaler, error) {
		return core.LoadProblemScaler(bytes.NewReader(bundle))
	})
	if err != nil {
		return nil, err
	}
	// The loaded bundle must predict the held-out rows bit for bit.
	for i, chars := range ev.Chars {
		t, err := loaded.PredictTime(chars)
		if err != nil {
			return nil, err
		}
		if math.Float64bits(t) != math.Float64bits(ev.Predicted[i]) {
			return nil, fmt.Errorf("loaded bundle predicts %v for held-out row %d, the fitted scaler %v", t, i, ev.Predicted[i])
		}
	}
	return &fittedScaler{analysis: an, scaler: ps, kind: kind, eval: ev, bundle: bundle}, nil
}

// hardwareScaling is one §6.2 study: the sweep profiled on both devices at
// once, then the cross-device forest. It returns the evaluation the paper
// would use: straightforward when the devices' importance rankings are
// similar, the mixed-variable workaround otherwise.
func (a *analysis) hardwareScaling(trainRuns, targetRuns []profiler.Workload, cache *runcache.Cache[*profiler.Profile], rec *recorder, h hash.Hash) (*core.Evaluation, error) {
	type pair struct{ train, target *dataset.Frame }
	frames, err := traced(rec, "collect", func() (pair, error) {
		// The target side's noise seed differs, as in the paper's separate
		// measurement campaign on the second board.
		ft, fg, err := core.CollectPair(
			a.gtx, trainRuns, a.collectOptions(cache, a.seed, rec.side(a.gtx, a.seed, trainRuns)),
			a.k20, targetRuns, a.collectOptions(cache, a.seed^0xca11b, rec.side(a.k20, a.seed^0xca11b, targetRuns)))
		return pair{ft, fg}, err
	})
	if err != nil {
		return nil, err
	}
	hw, err := traced(rec, "hwscale", func() (*core.HWScaling, error) {
		return core.HardwareScale(frames.train, frames.target, a.gtx, a.k20, a.cfg)
	})
	if err != nil {
		return nil, err
	}
	ev := hw.Straightforward
	if !hw.Similar {
		ev = hw.Mixed
	}
	if ev == nil || len(ev.Predicted) == 0 {
		return nil, errors.New("no held-out rows on the target device")
	}
	for _, names := range [][]string{hw.TrainImportance, hw.TargetImportance, hw.MixedVariables} {
		for _, n := range names {
			hashString(h, n)
		}
	}
	hashFloats(h, []float64{hw.Similarity})
	hashFloats(h, hw.Straightforward.Predicted)
	hashFloats(h, hw.Mixed.Predicted)
	return ev, nil
}

// replayScaler times NewProblemScaler's two halves for the traced run: the
// reduced forest refit on the distinct top predictors, and one counter
// model per retained counter. It repeats the work the timed pass already
// did and checks it reproduces the same models.
func (a *analysis) replayScaler(fs fittedScaler) (reducedS, counterS float64, models int, err error) {
	t := startTimer()
	reduced, err := core.AnalyzeWithPredictors(fs.analysis.Frame, fs.analysis.TopDistinctPredictors(a.cfg.TopK, 0.999), a.cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	reducedS = t.seconds()
	if fmt.Sprint(reduced.Predictors) != fmt.Sprint(fs.scaler.Reduced.Predictors) {
		return 0, 0, 0, fmt.Errorf("replayed reduced model uses %v, the scaler %v", reduced.Predictors, fs.scaler.Reduced.Predictors)
	}
	t = startTimer()
	for _, name := range fs.scaler.CounterNames() {
		if _, err := core.FitCounterModel(fs.analysis.Train, name, fs.scaler.CharNames, fs.kind); err != nil {
			return 0, 0, 0, err
		}
	}
	return reducedS, t.seconds(), len(fs.scaler.Models), nil
}

func hashString(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
