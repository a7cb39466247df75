// Benchmarks regenerating every table and figure of the paper, plus the
// ablation studies called out in DESIGN.md and microbenchmarks of the
// performance-critical substrates.
//
// Figure benchmarks run the Quick experiment scale so `go test -bench=.`
// stays tractable; `cmd/bfbench -scale full` reproduces the paper-scale
// sweeps. Reported metrics (R², %var explained) matter more than ns/op
// for the figure benchmarks.
package blackforest_test

import (
	"encoding/hex"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"blackforest"
	"blackforest/internal/experiments"
	"blackforest/internal/forest"
	"blackforest/internal/profiler"
	"blackforest/internal/runcache"
	"blackforest/internal/stats"
)

func benchOpts(seed uint64) experiments.Options {
	return experiments.Options{Scale: experiments.Quick, Seed: seed}
}

// --- Tables ---

func BenchmarkTable1Counters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RenderTable1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Devices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RenderTable2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 2–4: reduction bottleneck analyses ---

func benchReduction(b *testing.B, variant int) {
	b.Helper()
	var varExpl float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunReductionAnalysis(variant, benchOpts(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		varExpl += res.Analysis.VarExplained
	}
	b.ReportMetric(100*varExpl/float64(b.N), "%var")
}

func BenchmarkFig2Reduce1(b *testing.B) { benchReduction(b, 1) }
func BenchmarkFig3Reduce2(b *testing.B) { benchReduction(b, 2) }
func BenchmarkFig4Reduce6(b *testing.B) { benchReduction(b, 6) }

// --- Figures 5–6: problem-scaling prediction ---

func BenchmarkFig5MatMul(b *testing.B) {
	// Median absolute percentage error is robust to the tiny quick-scale
	// test splits (the related work the paper compares against quotes the
	// same measure: "median absolute error of 13.1%").
	var mape float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMatMulPrediction(benchOpts(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		mape += stats.MedianAbsPctError(res.Eval.Predicted, res.Eval.Actual)
	}
	b.ReportMetric(100*mape/float64(b.N), "medAPE%")
}

func BenchmarkFig6NW(b *testing.B) {
	var mape float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunNWPrediction(benchOpts(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		mape += stats.MedianAbsPctError(res.Eval.Predicted, res.Eval.Actual)
	}
	b.ReportMetric(100*mape/float64(b.N), "medAPE%")
}

// --- Figures 7–8: hardware scaling ---

func BenchmarkFig7HWScalingMM(b *testing.B) {
	var r2 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHWScalingMM(benchOpts(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		r2 += res.Result.Straightforward.R2
	}
	b.ReportMetric(r2/float64(b.N), "predR2")
}

func BenchmarkFig8HWScalingNW(b *testing.B) {
	var r2 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHWScalingNW(benchOpts(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		r2 += res.Result.Mixed.R2
	}
	b.ReportMetric(r2/float64(b.N), "mixedR2")
}

// --- Ablations (DESIGN.md) ---

// benchFrame collects one small reduce2 frame reused by the ablations.
func benchFrame(b *testing.B) *blackforest.Frame {
	b.Helper()
	dev, err := blackforest.LookupDevice("GTX580")
	if err != nil {
		b.Fatal(err)
	}
	var runs []blackforest.Workload
	seed := uint64(1)
	for _, bs := range []int{128, 256, 512} {
		for n := 1 << 12; n <= 1<<20; n *= 2 {
			seed++
			runs = append(runs, &blackforest.Reduction{Variant: 2, N: n, BlockSize: bs, Seed: seed})
		}
	}
	frame, err := blackforest.Collect(dev, runs, blackforest.CollectOptions{MaxSimBlocks: 8})
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// BenchmarkAblationMtry compares mtry = p/3 (regression default), √p, and
// p (bagging) on the same data.
func BenchmarkAblationMtry(b *testing.B) {
	frame := benchFrame(b)
	p := 0
	for _, n := range frame.Names() {
		if n != blackforest.ResponseColumn && n != blackforest.PowerColumn {
			p++
		}
	}
	for _, mtry := range []struct {
		name string
		m    int
	}{
		{"p3", p / 3}, {"sqrtp", isqrt(p)}, {"p", p},
	} {
		b.Run(mtry.name, func(b *testing.B) {
			var varExpl float64
			for i := 0; i < b.N; i++ {
				cfg := blackforest.DefaultConfig()
				cfg.Forest = forest.Config{NTrees: 150, MTry: mtry.m}
				cfg.Seed = uint64(i + 1)
				a, err := blackforest.Analyze(frame, cfg)
				if err != nil {
					b.Fatal(err)
				}
				varExpl = a.VarExplained
			}
			b.ReportMetric(100*varExpl, "%var")
		})
	}
}

// BenchmarkAblationNTree sweeps forest size against OOB quality.
func BenchmarkAblationNTree(b *testing.B) {
	frame := benchFrame(b)
	for _, ntree := range []int{10, 50, 150, 500} {
		b.Run(itoa(ntree), func(b *testing.B) {
			var oob float64
			for i := 0; i < b.N; i++ {
				cfg := blackforest.DefaultConfig()
				cfg.Forest = forest.Config{NTrees: ntree}
				cfg.Seed = uint64(i + 1)
				a, err := blackforest.Analyze(frame, cfg)
				if err != nil {
					b.Fatal(err)
				}
				oob = a.VarExplained
			}
			b.ReportMetric(100*oob, "%var")
		})
	}
}

// BenchmarkAblationTrainSize validates the paper's claim that <100 samples
// suffice by shrinking the training fraction.
func BenchmarkAblationTrainSize(b *testing.B) {
	frame := benchFrame(b)
	for _, frac := range []struct {
		name string
		f    float64
	}{
		{"40pct", 0.4}, {"60pct", 0.6}, {"80pct", 0.8},
	} {
		b.Run(frac.name, func(b *testing.B) {
			var r2 float64
			for i := 0; i < b.N; i++ {
				cfg := blackforest.DefaultConfig()
				cfg.Forest = forest.Config{NTrees: 150}
				cfg.TrainFrac = frac.f
				cfg.Seed = uint64(i + 1)
				a, err := blackforest.Analyze(frame, cfg)
				if err != nil {
					b.Fatal(err)
				}
				r2 = a.TestR2
			}
			b.ReportMetric(r2, "testR2")
		})
	}
}

// BenchmarkAblationTopK measures how much predictive power the reduced
// model keeps as k shrinks (the paper retains 6–8).
func BenchmarkAblationTopK(b *testing.B) {
	frame := benchFrame(b)
	cfg := blackforest.DefaultConfig()
	cfg.Forest = forest.Config{NTrees: 150}
	cfg.Seed = 1
	a, err := blackforest.Analyze(frame, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{2, 4, 7, 12} {
		b.Run(itoa(k), func(b *testing.B) {
			var r2 float64
			for i := 0; i < b.N; i++ {
				reduced, _, err := a.Reduce(k, 0)
				if err != nil {
					b.Fatal(err)
				}
				r2 = reduced.TestR2
			}
			b.ReportMetric(r2, "testR2")
		})
	}
}

// BenchmarkAblationCounterModel compares GLM against MARS counter models
// on the same analysis.
func BenchmarkAblationCounterModel(b *testing.B) {
	frame := benchFrame(b)
	cfg := blackforest.DefaultConfig()
	cfg.Forest = forest.Config{NTrees: 150}
	cfg.Seed = 1
	a, err := blackforest.Analyze(frame, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []struct {
		name string
		k    blackforest.ModelKind
	}{
		{"glm", blackforest.GLMModel}, {"mars", blackforest.MARSModel},
	} {
		b.Run(kind.name, func(b *testing.B) {
			var avgR2 float64
			for i := 0; i < b.N; i++ {
				ps, err := blackforest.NewProblemScaler(a, cfg.TopK, kind.k)
				if err != nil {
					b.Fatal(err)
				}
				avgR2 = ps.AverageCounterR2()
			}
			b.ReportMetric(avgR2, "counterR2")
		})
	}
}

// BenchmarkAblationSampling measures counter fidelity (and speed) versus
// the per-launch block-sampling cap.
func BenchmarkAblationSampling(b *testing.B) {
	dev, err := blackforest.LookupDevice("GTX580")
	if err != nil {
		b.Fatal(err)
	}
	fullProfiler := blackforest.NewProfiler(dev, blackforest.ProfilerOptions{NoiseSigma: -1})
	ref, err := fullProfiler.Run(&blackforest.MatMul{N: 256, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	refLoads := ref.Metrics["gld_request"]
	for _, cap := range []int{4, 16, 64} {
		b.Run(itoa(cap), func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				p := blackforest.NewProfiler(dev, blackforest.ProfilerOptions{MaxSimBlocks: cap, NoiseSigma: -1})
				prof, err := p.Run(&blackforest.MatMul{N: 256, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				rel = prof.Metrics["gld_request"] / refLoads
			}
			b.ReportMetric(rel, "gld_ratio")
		})
	}
}

// BenchmarkExtPowerMatMul runs the §7 power-response extension.
func BenchmarkExtPowerMatMul(b *testing.B) {
	var r2 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPowerPrediction(benchOpts(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		r2 += res.Eval.R2
	}
	b.ReportMetric(r2/float64(b.N), "powerR2")
}

// BenchmarkAblationPCAFirst compares the standard pipeline against the
// §7 PCA-first variant on the same frame.
func BenchmarkAblationPCAFirst(b *testing.B) {
	frame := benchFrame(b)
	cfg := blackforest.DefaultConfig()
	cfg.Forest = forest.Config{NTrees: 150}
	b.Run("raw", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i + 1)
			a, err := blackforest.Analyze(frame, cfg)
			if err != nil {
				b.Fatal(err)
			}
			v = a.VarExplained
		}
		b.ReportMetric(100*v, "%var")
	})
	b.Run("pcafirst", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i + 1)
			a, err := blackforest.AnalyzePCAFirst(frame, cfg)
			if err != nil {
				b.Fatal(err)
			}
			v = a.VarExplained
		}
		b.ReportMetric(100*v, "%var")
	})
}

// BenchmarkBaselineComparison pits the forest against the Stargazer-style
// stepwise linear regression (the paper's related-work baseline) on the
// same frame and reports held-out R² for both — quantifying the §1 claim
// that RF outperforms traditional regression on counter data.
func BenchmarkBaselineComparison(b *testing.B) {
	frame := benchFrame(b)
	preds := make([]string, 0, frame.NumCols())
	for _, n := range frame.Names() {
		if n != blackforest.ResponseColumn && n != blackforest.PowerColumn {
			preds = append(preds, n)
		}
	}
	b.Run("forest", func(b *testing.B) {
		var r2 float64
		for i := 0; i < b.N; i++ {
			cfg := blackforest.DefaultConfig()
			cfg.Forest = forest.Config{NTrees: 150}
			cfg.Seed = 1
			a, err := blackforest.Analyze(frame, cfg)
			if err != nil {
				b.Fatal(err)
			}
			r2 = a.TestR2
		}
		b.ReportMetric(r2, "testR2")
	})
	b.Run("stepwise", func(b *testing.B) {
		// Same 80:20 split as the forest run (same seed stream).
		rng := stats.NewRNG(1 ^ 0x5b117)
		train, test, err := frame.Split(rng, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		xTrain, _ := train.Matrix(preds)
		yTrain, _ := train.Column(blackforest.ResponseColumn)
		xTest, _ := test.Matrix(preds)
		yTest, _ := test.Column(blackforest.ResponseColumn)
		var r2 float64
		for i := 0; i < b.N; i++ {
			m, err := blackforest.FitStepwise(xTrain, yTrain, preds, blackforest.StepwiseConfig{})
			if err != nil {
				b.Fatal(err)
			}
			r2 = stats.RSquared(m.PredictAll(xTest), yTest)
		}
		b.ReportMetric(r2, "testR2")
	})
}

// BenchmarkCollectParallel measures the bounded worker pool on the Fig-6
// NW sweep (64 runs): "seq" collects through a one-slot gate, "par"
// through the default gate. Both produce bit-identical frames (verified
// by TestCollectWorkersBitIdentical); the ratio of their ns/op is the
// parallel speedup.
func BenchmarkCollectParallel(b *testing.B) {
	dev, err := blackforest.LookupDevice("GTX580")
	if err != nil {
		b.Fatal(err)
	}
	// Workload construction stays outside the measured loop: the runs are
	// stateless descriptors (each Collect re-plans them), so rebuilding
	// them per iteration only added noise to the collection timing.
	var runs []blackforest.Workload
	seed := uint64(1)
	for n := 64; n <= 4096; n += 64 {
		seed++
		runs = append(runs, &blackforest.NeedlemanWunsch{SeqLen: n, Seed: seed})
	}
	for _, c := range []struct {
		name string
		gate blackforest.Gate
	}{
		{"seq", blackforest.NewGate(1)}, {"par", nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := blackforest.CollectOptions{MaxSimBlocks: 8, Gate: c.gate}
				if _, err := blackforest.Collect(dev, runs, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkForestFit(b *testing.B) {
	rng := stats.NewRNG(1)
	n, p := 100, 20
	x := make([][]float64, n)
	y := make([]float64, n)
	names := make([]string, p)
	for j := range names {
		names[j] = "v" + itoa(j)
	}
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = row[0]*10 + row[1]*5 + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Fit(x, y, names, forest.Config{NTrees: 100, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// quickFrame is one Quick-scale study frame on the GTX580, with the
// analysis the study runs on it.
type quickFrame struct {
	name     string
	analysis *blackforest.Analysis
}

// quickFrames collects the Quick reduce2, matmul and NW frames through
// cache and analyzes each with the study's 120-tree forest on one worker.
func quickFrames(b *testing.B, cache *runcache.Cache[*profiler.Profile]) []quickFrame {
	b.Helper()
	dev, err := blackforest.LookupDevice("GTX580")
	if err != nil {
		b.Fatal(err)
	}
	opt := blackforest.CollectOptions{MaxSimBlocks: 8, Cache: cache}
	cfg := blackforest.DefaultConfig()
	cfg.Forest.NTrees = 120
	cfg.Forest.Workers = 1
	var out []quickFrame
	for _, c := range []struct {
		name string
		runs []blackforest.Workload
	}{
		{"reduce2", experiments.ReductionSweep(2, benchOpts(1))},
		{"matmul", experiments.MatMulSweep(benchOpts(1))},
		{"nw", experiments.NWSweep(benchOpts(1))},
	} {
		frame, err := blackforest.Collect(dev, c.runs, opt)
		if err != nil {
			b.Fatal(err)
		}
		a, err := blackforest.Analyze(frame, cfg)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, quickFrame{c.name, a})
	}
	return out
}

// BenchmarkForestFitQuickFrames fits the 120-tree forests of a Quick-scale
// analysis on the training splits of the reduce2, matmul and NW frames: a
// few dozen rows whose counter columns carry many tied values with unequal
// responses, the shape of the warm pass's fits, which BenchmarkForestFit's
// continuous features never reach. The frames are collected once, through
// one memory-only run cache; each iteration times one forest.Fit on one
// worker.
func BenchmarkForestFitQuickFrames(b *testing.B) {
	cache, err := profiler.NewRunCache("", 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, qf := range quickFrames(b, cache) {
		// Analyze drew the training split the study fits its forest on.
		a := qf.analysis
		x, err := a.Train.Matrix(a.Predictors)
		if err != nil {
			b.Fatal(err)
		}
		y, err := a.Train.Column(blackforest.ResponseColumn)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(qf.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := forest.Config{NTrees: 120, Seed: uint64(i + 1), Workers: 1}
				if _, err := forest.Fit(x, y, a.Predictors, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBottlenecksQuickFrames runs the bottleneck stage of a Quick
// analysis, Bottlenecks(8): the partial dependence of the eight most
// important counters of the reduce2, matmul and NW frames, each over the
// 120-tree forest on one worker.
func BenchmarkBottlenecksQuickFrames(b *testing.B) {
	cache, err := profiler.NewRunCache("", 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, qf := range quickFrames(b, cache) {
		b.Run(qf.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := qf.analysis.Bottlenecks(8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunCacheWarmRead reopens a warm run cache holding the Quick
// reduce2, matmul and NW sweeps on the GTX580 and the matmul and NW sweeps
// on the K20m, and reads every entry from disk, as a warm analysis pass
// does: each iteration opens the cache afresh, so every Get decodes.
func BenchmarkRunCacheWarmRead(b *testing.B) {
	dir := b.TempDir()
	cache, err := profiler.NewRunCache(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	quickFrames(b, cache)
	k20, err := blackforest.LookupDevice("K20m")
	if err != nil {
		b.Fatal(err)
	}
	opt := blackforest.CollectOptions{MaxSimBlocks: 8, Cache: cache}
	for _, runs := range [][]blackforest.Workload{experiments.MatMulSweep(benchOpts(1)), experiments.NWSweep(benchOpts(1))} {
		if _, err := blackforest.Collect(k20, runs, opt); err != nil {
			b.Fatal(err)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.bfrc"))
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]runcache.Key, len(entries))
	for i, e := range entries {
		raw, err := hex.DecodeString(strings.TrimSuffix(filepath.Base(e), ".bfrc"))
		if err != nil || len(raw) != len(keys[i]) {
			b.Fatalf("entry %s: not a run key", e)
		}
		copy(keys[i][:], raw)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, err := profiler.NewRunCache(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if _, ok := warm.Get(k); !ok {
				b.Fatalf("entry %x missed", k)
			}
		}
	}
	b.ReportMetric(float64(len(keys)), "entries")
}

// benchPredictForest fits the shared 500-tree forest the predict
// microbenchmarks walk, plus a query batch drawn from the same distribution.
func benchPredictForest(b *testing.B) (*forest.Forest, [][]float64) {
	b.Helper()
	rng := stats.NewRNG(2)
	n, p := 100, 20
	x := make([][]float64, n)
	y := make([]float64, n)
	names := make([]string, p)
	for j := range names {
		names[j] = "v" + itoa(j)
	}
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = row[0] * 10
	}
	f, err := forest.Fit(x, y, names, forest.Config{NTrees: 500, Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, 1024)
	for i := range queries {
		q := make([]float64, p)
		for j := range q {
			q[j] = rng.Float64()
		}
		queries[i] = q
	}
	return f, queries
}

// BenchmarkForestPredict walks the flat engine (the serving path).
func BenchmarkForestPredict(b *testing.B) {
	f, queries := benchPredictForest(b)
	probe := queries[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(probe)
	}
}

// BenchmarkPredictAllFlat runs the tree-major batched mode over 1024 rows
// per iteration (single-threaded, so the metric tracks the engine, not the
// worker pool).
func BenchmarkPredictAllFlat(b *testing.B) {
	f, queries := benchPredictForest(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.PredictAll(queries); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/row")
}

func BenchmarkSimulatorMatMul(b *testing.B) {
	dev, err := blackforest.LookupDevice("GTX580")
	if err != nil {
		b.Fatal(err)
	}
	p := blackforest.NewProfiler(dev, blackforest.ProfilerOptions{MaxSimBlocks: 16, NoiseSigma: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(&blackforest.MatMul{N: 256, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorReduce6(b *testing.B) {
	dev, err := blackforest.LookupDevice("GTX580")
	if err != nil {
		b.Fatal(err)
	}
	p := blackforest.NewProfiler(dev, blackforest.ProfilerOptions{MaxSimBlocks: 16, NoiseSigma: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(&blackforest.Reduction{Variant: 6, N: 1 << 20, BlockSize: 256, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorNW(b *testing.B) {
	dev, err := blackforest.LookupDevice("GTX580")
	if err != nil {
		b.Fatal(err)
	}
	p := blackforest.NewProfiler(dev, blackforest.ProfilerOptions{MaxSimBlocks: 16, NoiseSigma: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(&blackforest.NeedlemanWunsch{SeqLen: 512, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQuickSweep collects a Quick-scale sweep the way the study's cold
// pass does: MaxSimBlocks 8 (experiments.Quick), one run at a time
// through a one-slot gate, every run released after it finishes. A fresh
// sweep per iteration keeps each run's Plan inside the measured loop.
func benchQuickSweep(b *testing.B, sweep func(experiments.Options) []blackforest.Workload) {
	for _, name := range []string{"GTX580", "K20m"} {
		b.Run(name, func(b *testing.B) {
			dev, err := blackforest.LookupDevice(name)
			if err != nil {
				b.Fatal(err)
			}
			opt := blackforest.CollectOptions{MaxSimBlocks: 8, Gate: blackforest.NewGate(1)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := blackforest.Collect(dev, sweep(benchOpts(1)), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuickSweepNW and BenchmarkQuickSweepMatMul simulate the Quick
// NW and matmul sweeps (16 and 15 runs) on both devices of the
// hardware-scaling study: the simulation share of a cold analysis pass.
func BenchmarkQuickSweepNW(b *testing.B)     { benchQuickSweep(b, experiments.NWSweep) }
func BenchmarkQuickSweepMatMul(b *testing.B) { benchQuickSweep(b, experiments.MatMulSweep) }

// --- tiny helpers ---

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
