// blackforest is the end-to-end tool: collect counter data for a kernel
// over a problem-size sweep, build and validate the random forest, report
// variable importance and bottleneck diagnosis, refine with PCA, and
// (optionally) predict execution time for unseen problem sizes.
//
// Usage:
//
//	blackforest -kernel reduce1 -device GTX580            # bottleneck analysis
//	blackforest -kernel matmul -predict 384,1536          # + problem scaling
//	blackforest -kernel needle -sweep 64:2048:64 -models mars
//	blackforest -kernel matmul -save model.json           # persist the model
//	blackforest -load model.json -predict 384,1536        # predict, no profiling
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"blackforest/internal/buildinfo"
	"blackforest/internal/core"
	"blackforest/internal/dataset"
	"blackforest/internal/faults"
	"blackforest/internal/gpusim"
	"blackforest/internal/kernels"
	"blackforest/internal/optimize"
	"blackforest/internal/profiler"
	"blackforest/internal/report"
)

func main() {
	kernel := flag.String("kernel", "reduce1", "kernel: reduce0..reduce6, transpose0..transpose2, histogram0..histogram1, matmul, needle")
	data := flag.String("data", "", "analyze an existing counter CSV (as produced by bfprof -sweep or real nvprof post-processing) instead of profiling")
	device := flag.String("device", "GTX580", "device: "+strings.Join(gpusim.DeviceNames(), ", "))
	sweep := flag.String("sweep", "", "size sweep lo:hi:step (defaults per kernel)")
	predict := flag.String("predict", "", "comma-separated unseen sizes to predict")
	models := flag.String("models", "auto", "counter models: auto, glm, or mars")
	topK := flag.Int("topk", 7, "retained most-important predictors")
	seed := flag.Uint64("seed", 1, "random seed")
	simBlocks := flag.Int("simblocks", 24, "max blocks simulated in detail per launch")
	workers := flag.Int("workers", 0, "concurrent profiling runs during collection (0 = all CPUs)")
	cacheDir := flag.String("cache-dir", "", "content-addressed run cache directory: repeated collections reuse profiles bit-identically (empty = off)")
	save := flag.String("save", "", "write the trained prediction model (forest + counter models) as a JSON bundle")
	load := flag.String("load", "", "load a saved model bundle instead of profiling and training")
	faultSpec := flag.String("faults", "", `fault injection spec, e.g. "seed=42,runfail=0.2,dropout=0.1" (chaos testing; empty = off)`)
	retries := flag.Int("retries", 0, "extra attempts for a failed profiling run (with -faults)")
	completeness := flag.Float64("completeness", core.DefaultMinCompleteness, "column completeness threshold for degraded collections: lower columns are dropped, higher are mean-imputed")
	explain := flag.Bool("explain", false, "print the simulator's cycle-accounting bottleneck breakdown for the kernel at its largest sweep size, then exit")
	optimizeFlag := flag.Bool("optimize", false, "classify the kernel's bottleneck regime and run the guarded launch-config search at its largest sweep size, then exit")
	transforms := flag.String("transforms", "", `with -optimize: restrict the search to a comma-separated transformation menu, e.g. "tile=32,unroll=4" (empty = full domains)`)
	minGain := flag.Float64("min-gain", optimize.DefaultMinGainPct, "with -optimize: validated cycle improvement (percent) required to accept a transformation")
	optSteps := flag.Int("opt-steps", optimize.DefaultMaxSteps, "with -optimize: maximum accepted transformations")
	optLog := flag.String("opt-log", "", "with -optimize: write the JSON decision log to this file")
	version := flag.Bool("version", false, "print version and build info, then exit")
	flag.Parse()

	if *version {
		buildinfo.Get("blackforest").Print(os.Stdout)
		return
	}
	if *explain {
		if err := explainKernel(*kernel, *device, *sweep, *seed, *simBlocks); err != nil {
			fatal(err)
		}
		return
	}
	if *optimizeFlag {
		if err := optimizeKernel(optimizeArgs{
			kernel: *kernel, device: *device, sweep: *sweep,
			seed: *seed, simBlocks: *simBlocks, cacheDir: *cacheDir,
			transforms: *transforms, minGain: *minGain, maxSteps: *optSteps,
			logPath: *optLog,
		}); err != nil {
			fatal(err)
		}
		return
	}

	faultCfg, err := faults.Parse(*faultSpec)
	if err != nil {
		fatal(err)
	}
	injector := faults.New(faultCfg)

	if *load != "" {
		scaler, err := core.LoadProblemScalerFile(*load)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s: response %s, %d trees over %v (test R² %.3f, %d counter models, mean counter R² %.3f)\n",
			*load, scaler.Response(), scaler.Reduced.Forest.NumTrees(),
			scaler.Reduced.Predictors, scaler.Reduced.TestR2, len(scaler.Models), scaler.AverageCounterR2())
		if scaler.Degradation != nil {
			fmt.Printf("warning: model was trained on a %s\n", scaler.Degradation)
		}
		if *predict != "" {
			if err := predictSizes(scaler, *predict); err != nil {
				fatal(err)
			}
		}
		return
	}

	var frame *dataset.Frame
	var degradation *core.Degradation
	if *data != "" {
		var err error
		frame, err = dataset.LoadCSV(*data)
		if err != nil {
			fatal(err)
		}
		if !frame.Has(core.ResponseColumn) {
			fatal(fmt.Errorf("%s has no %s column", *data, core.ResponseColumn))
		}
		frame = frame.DropConstantColumns(core.ResponseColumn, core.PowerColumn)
		fmt.Printf("loaded %d runs × %d variables from %s\n", frame.NumRows(), frame.NumCols(), *data)
	} else {
		dev, err := gpusim.LookupDevice(*device)
		if err != nil {
			fatal(err)
		}
		runs, err := buildSweep(*kernel, *sweep, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("collecting %d runs of %s on %s...\n", len(runs), *kernel, dev.Name)
		copt := core.CollectOptions{
			MaxSimBlocks:    *simBlocks,
			Seed:            *seed,
			Gate:            profiler.NewGate(*workers),
			Faults:          injector,
			Retries:         *retries,
			RetryBackoff:    10 * time.Millisecond,
			MinCompleteness: *completeness,
		}
		if *cacheDir != "" {
			copt.Cache, err = profiler.NewRunCache(*cacheDir, 0)
			if err != nil {
				fatal(err)
			}
		}
		frame, degradation, err = core.CollectWithReport(dev, runs, copt)
		if err != nil {
			fatal(err)
		}
		if copt.Cache != nil {
			fmt.Printf("run cache %s: %s\n", *cacheDir, copt.Cache.Stats())
		}
		if degradation != nil {
			fmt.Printf("warning: partial collection — %s\n", degradation)
		}
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.TopK = *topK
	a, err := core.Analyze(frame, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nrandom forest: %d trees, OOB MSE %.4g, %%var explained %.1f%%, test R² %.3f\n\n",
		a.Forest.NumTrees(), a.OOBMSE, 100*a.VarExplained, a.TestR2)

	labels := make([]string, 0, 12)
	values := make([]float64, 0, 12)
	for i, imp := range a.Importance {
		if i >= 12 {
			break
		}
		labels = append(labels, imp.Name)
		values = append(values, imp.PctIncMSE)
	}
	if err := report.BarChart(os.Stdout, "variable importance (%IncMSE):", labels, values, 44); err != nil {
		fatal(err)
	}

	bns, err := a.Bottlenecks(*topK)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nbottleneck diagnosis:")
	rows := make([][]string, 0, len(bns))
	for _, b := range bns {
		rows = append(rows, []string{
			strconv.Itoa(b.Rank), b.Counter, b.Direction.String(), b.Pattern, b.Remedy,
		})
	}
	if err := report.Table(os.Stdout, []string{"rank", "counter", "dir", "pattern", "remedy"}, rows); err != nil {
		fatal(err)
	}

	if a.NeedsPCA(bns) {
		fmt.Println("\nimportance is diffuse or nonmonotone — refining with PCA:")
	} else {
		fmt.Println("\nPCA refinement:")
	}
	ref, err := a.PCARefine(false)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  %d components explain %.1f%% of variance\n", ref.Components, 100*ref.ExplainedVariance)
	for c := 0; c < ref.Components; c++ {
		fmt.Printf("  PC%d (%s):", c+1, ref.Labels[c])
		for i, ld := range ref.Loadings[c] {
			if i >= 4 {
				break
			}
			fmt.Printf(" %s=%+.2f", ld.Variable, ld.Value)
		}
		fmt.Println()
	}

	if *predict == "" && *save == "" {
		return
	}
	kind := core.AutoModel
	switch *models {
	case "glm":
		kind = core.GLMModel
	case "mars":
		kind = core.MARSModel
	}
	scaler, err := core.NewProblemScaler(a, *topK, kind)
	if err != nil {
		fatal(err)
	}
	// Record how the training data was repaired, so the saved bundle (and
	// anything serving it) discloses the degraded fit.
	scaler.Degradation = degradation
	if *save != "" {
		if err := scaler.SaveFile(*save); err != nil {
			fatal(err)
		}
		fmt.Printf("\nsaved model bundle to %s (serve it with: bfserve -model %s)\n", *save, *save)
	}
	if *predict != "" {
		fmt.Printf("\nproblem-scaling predictions (counter models: %s, mean R² %.3f):\n",
			*models, scaler.AverageCounterR2())
		if err := predictSizes(scaler, *predict); err != nil {
			fatal(err)
		}
	}
}

// predictSizes answers a comma-separated size list from the scaler, filling
// the block-size characteristic with its conventional default when the
// model uses it.
func predictSizes(scaler *core.ProblemScaler, sizes string) error {
	hasBlockSize := false
	for _, c := range scaler.CharNames {
		if c == "block_size" {
			hasBlockSize = true
		}
	}
	for _, s := range strings.Split(sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad size %q: %w", s, err)
		}
		chars := map[string]float64{"size": float64(n)}
		if hasBlockSize {
			chars["block_size"] = 256
		}
		t, err := scaler.PredictTime(chars)
		if err != nil {
			return err
		}
		fmt.Printf("  size %8d → %.4f ms\n", n, t)
	}
	return nil
}

// explainKernel profiles the kernel at the largest size of its sweep
// (noise-free, so the numbers are the model's own) and prints the
// simulator's cycle-accounting breakdown: where the modeled cycles go,
// and which term bound each launch. This is the per-kernel ground truth
// the statistical pipeline's bottleneck diagnosis is trying to recover
// from counters alone.
func explainKernel(kernel, device, sweep string, seed uint64, simBlocks int) error {
	dev, err := gpusim.LookupDevice(device)
	if err != nil {
		return err
	}
	runs, err := buildSweep(kernel, sweep, seed)
	if err != nil {
		return err
	}
	w := runs[len(runs)-1]
	p := profiler.New(dev, profiler.Options{MaxSimBlocks: simBlocks, NoiseSigma: -1})
	prof, err := p.Run(w)
	if err != nil {
		return err
	}

	fmt.Printf("cycle accounting: %s on %s (size %.0f, %d launches, %.4g modeled cycles)\n\n",
		prof.Workload, prof.Device, prof.Characteristics["size"], prof.Launches, prof.Cycles)
	if err := optimize.RenderBreakdown(os.Stdout, &prof.Breakdown, prof.Cycles); err != nil {
		return err
	}

	fmt.Println("\nlaunches per binding bottleneck term:")
	for _, term := range []string{"issue", "alu", "dram", "l2", "latency", "atomics"} {
		if n := prof.Bottlenecks[term]; n > 0 {
			fmt.Printf("  %-8s ×%d\n", term, n)
		}
	}
	fmt.Printf("dominant: %s\n", prof.DominantBottleneck())
	return nil
}

// optimizeArgs carries the -optimize flag set.
type optimizeArgs struct {
	kernel, device, sweep string
	seed                  uint64
	simBlocks             int
	cacheDir              string
	transforms            string
	minGain               float64
	maxSteps              int
	logPath               string
}

// optimizeKernel classifies the kernel's bottleneck regime at the largest
// size of its sweep and runs the guarded launch-configuration search:
// candidates are scored at low fidelity, validated at the -simblocks
// fidelity, and accepted only for validated cycle gains above -min-gain.
// With -cache-dir every candidate simulation is served from (and feeds)
// the content-addressed run cache, so repeating a search is pure cache
// hits; with -opt-log the full decision log is written as JSON.
func optimizeKernel(a optimizeArgs) error {
	dev, err := gpusim.LookupDevice(a.device)
	if err != nil {
		return err
	}
	runs, err := buildSweep(a.kernel, a.sweep, a.seed)
	if err != nil {
		return err
	}
	w, ok := runs[len(runs)-1].(optimize.Tunable)
	if !ok {
		return fmt.Errorf("kernel %q has no tunable launch parameters", a.kernel)
	}
	menu, err := optimize.ParseTransforms(a.transforms)
	if err != nil {
		return err
	}
	cfg := optimize.Config{
		Device:            dev,
		ValidateSimBlocks: a.simBlocks,
		MinGainPct:        a.minGain,
		MaxSteps:          a.maxSteps,
		Transforms:        menu,
		Seed:              a.seed,
	}
	if a.cacheDir != "" {
		cfg.Cache, err = profiler.NewRunCache(a.cacheDir, 0)
		if err != nil {
			return err
		}
	}
	res, err := optimize.Optimize(w, cfg)
	if err != nil {
		return err
	}
	if err := res.Render(os.Stdout); err != nil {
		return err
	}
	if cfg.Cache != nil {
		fmt.Printf("\nrun cache %s: %s\n", a.cacheDir, cfg.Cache.Stats())
	}
	if a.logPath != "" {
		f, err := os.Create(a.logPath)
		if err != nil {
			return err
		}
		if err := res.WriteLog(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("decision log written to %s\n", a.logPath)
	}
	return nil
}

// buildSweep creates the collection runs for a kernel, using per-kernel
// default sweeps when none is given.
func buildSweep(kernel, sweep string, seed uint64) ([]profiler.Workload, error) {
	type mk func(n int, seed uint64) (profiler.Workload, error)
	var make_ mk
	var defSweep string
	switch {
	case strings.HasPrefix(kernel, "transpose"):
		v, err := strconv.Atoi(strings.TrimPrefix(kernel, "transpose"))
		if err != nil || v < 0 || v > 2 {
			return nil, fmt.Errorf("unknown kernel %q", kernel)
		}
		defSweep = "32:2048:96"
		make_ = func(n int, seed uint64) (profiler.Workload, error) {
			return &kernels.Transpose{Variant: v, N: (n / 32) * 32, Seed: seed}, nil
		}
	case strings.HasPrefix(kernel, "histogram"):
		v, err := strconv.Atoi(strings.TrimPrefix(kernel, "histogram"))
		if err != nil || v < 0 || v > 1 {
			return nil, fmt.Errorf("unknown kernel %q", kernel)
		}
		defSweep = "65536:4194304:131072"
		make_ = func(n int, seed uint64) (profiler.Workload, error) {
			return &kernels.Histogram{Variant: v, N: n, Seed: seed}, nil
		}
	case strings.HasPrefix(kernel, "reduce"):
		v, err := strconv.Atoi(strings.TrimPrefix(kernel, "reduce"))
		if err != nil || v < 0 || v > 6 {
			return nil, fmt.Errorf("unknown kernel %q", kernel)
		}
		defSweep = "4096:1048576:32768"
		make_ = func(n int, seed uint64) (profiler.Workload, error) {
			return &kernels.Reduction{Variant: v, N: n, BlockSize: 256, Seed: seed}, nil
		}
	case kernel == "matmul":
		defSweep = "32:2048:96"
		make_ = func(n int, seed uint64) (profiler.Workload, error) {
			return &kernels.MatMul{N: (n / 16) * 16, Seed: seed}, nil
		}
	case kernel == "needle":
		defSweep = "64:4096:64"
		make_ = func(n int, seed uint64) (profiler.Workload, error) {
			return &kernels.NeedlemanWunsch{SeqLen: n, Seed: seed}, nil
		}
	default:
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}
	if sweep == "" {
		sweep = defSweep
	}
	parts := strings.Split(sweep, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("sweep %q must be lo:hi:step", sweep)
	}
	lo, err1 := strconv.Atoi(parts[0])
	hi, err2 := strconv.Atoi(parts[1])
	step, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || step <= 0 {
		return nil, fmt.Errorf("bad sweep %q", sweep)
	}
	var runs []profiler.Workload
	for n := lo; n <= hi; n += step {
		seed++
		w, err := make_(n, seed)
		if err != nil {
			return nil, err
		}
		runs = append(runs, w)
	}
	return runs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blackforest:", err)
	os.Exit(1)
}
