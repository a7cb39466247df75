package experiments

import (
	"fmt"
	"io"
	"sort"

	"blackforest/internal/core"
	"blackforest/internal/dataset"
	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
	"blackforest/internal/report"
)

// trainDevice is the GPU the paper trains on in every experiment.
const trainDevice = "GTX580"

// targetDevice is the paper's hardware-scaling target.
const targetDevice = "K20m"

// pipelineConfig assembles the core.Config for an experiment.
func (o Options) pipelineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Forest = o.forestConfig()
	cfg.Seed = o.Seed
	return cfg
}

// collectOptions assembles the data-collection options for an experiment.
// With an Engine, collections share its run cache and worker pool.
func (o Options) collectOptions() core.CollectOptions {
	copt := core.CollectOptions{
		MaxSimBlocks: o.maxSimBlocks(),
		Seed:         o.Seed,
	}
	if o.Engine != nil {
		copt.Cache = o.Engine.cache
		copt.Gate = o.Engine.gate
		copt.Tracer = o.Engine.tracer
	}
	return copt
}

// ReductionAnalysis is the result of a §5 bottleneck analysis (Figures
// 2–4): importance ranking, partial dependence of the top counter, and the
// PCA refinement.
type ReductionAnalysis struct {
	Variant  int
	Device   string
	Frame    *dataset.Frame
	Analysis *core.Analysis
	// Bottlenecks covers the top predictors with direction + pattern.
	Bottlenecks []core.Bottleneck
	// PDName/PDGrid/PDResponse are the partial dependence of the most
	// important counter (Fig 2b/3b/4b); PDLo/PDHi are the 90% pointwise
	// confidence band across trees (the §7 suggestion).
	PDName     string
	PDGrid     []float64
	PDResponse []float64
	PDLo       []float64
	PDHi       []float64
	// PCA is the refinement (Fig 2c/3c): retained components, variance,
	// loadings, and theme labels.
	PCA *core.PCARefinement
}

// RunReductionAnalysis reproduces Figure 2 (variant 1), Figure 3
// (variant 2), or Figure 4 (variant 6); other variants run the same
// pipeline for completeness.
func RunReductionAnalysis(variant int, o Options) (*ReductionAnalysis, error) {
	dev, err := gpusim.LookupDevice(trainDevice)
	if err != nil {
		return nil, err
	}
	frame, err := core.Collect(dev, ReductionSweep(variant, o), o.collectOptions())
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(frame, o.pipelineConfig())
	if err != nil {
		return nil, err
	}
	bn, err := a.Bottlenecks(8)
	if err != nil {
		return nil, err
	}
	res := &ReductionAnalysis{
		Variant:     variant,
		Device:      dev.Name,
		Frame:       frame,
		Analysis:    a,
		Bottlenecks: bn,
	}
	res.PDName = a.Importance[0].Name
	res.PDGrid, res.PDResponse, res.PDLo, res.PDHi, err = a.Forest.PartialDependenceCI(res.PDName, 25, 0.9)
	if err != nil {
		return nil, err
	}
	res.PCA, err = a.PCARefine(false)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render writes the figure-equivalent report.
func (r *ReductionAnalysis) Render(w io.Writer) error {
	fmt.Fprintf(w, "== reduce%d on %s: bottleneck analysis (%d runs, OOB %%var explained %.1f%%) ==\n\n",
		r.Variant, r.Device, r.Frame.NumRows(), 100*r.Analysis.VarExplained)

	labels := make([]string, 0, 10)
	values := make([]float64, 0, 10)
	for i, imp := range r.Analysis.Importance {
		if i >= 10 {
			break
		}
		labels = append(labels, imp.Name)
		values = append(values, imp.PctIncMSE)
	}
	if err := report.BarChart(w, "(a) variable importance (%IncMSE)", labels, values, 40); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n(b) partial dependence of %s on predicted time (90%% band)\n", r.PDName)
	if err := report.XYChart(w, "", r.PDGrid, []report.Series{
		{Name: "time_ms", Y: r.PDResponse},
		{Name: "lo", Y: r.PDLo},
		{Name: "hi", Y: r.PDHi},
	}, 56, 12); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n(c) PCA refinement: %d components explain %.1f%% of variance\n",
		r.PCA.Components, 100*r.PCA.ExplainedVariance)
	for c := 0; c < r.PCA.Components; c++ {
		fmt.Fprintf(w, "  PC%d (%s):", c+1, r.PCA.Labels[c])
		for i, ld := range r.PCA.Loadings[c] {
			if i >= 4 {
				break
			}
			fmt.Fprintf(w, " %s=%+.2f", ld.Variable, ld.Value)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "\nbottleneck diagnosis:")
	rows := make([][]string, 0, len(r.Bottlenecks))
	for _, b := range r.Bottlenecks {
		rows = append(rows, []string{
			fmt.Sprintf("%d", b.Rank), b.Counter, b.Direction.String(),
			fmt.Sprintf("%.2f", b.Correlation), b.Pattern,
		})
	}
	return report.Table(w, []string{"rank", "counter", "direction", "corr", "pattern"}, rows)
}

// ProblemScaling is the result of a §6.1 prediction experiment (Figures 5
// and 6): full and reduced analyses, characteristic-only predictions on
// the test split, and the counter models behind them.
type ProblemScaling struct {
	Workload string
	Device   string
	Frame    *dataset.Frame
	Analysis *core.Analysis
	Reduced  *core.Analysis
	// RetainedPower reports whether the reduced model kept the full
	// model's predictive power.
	RetainedPower bool
	Scaler        *core.ProblemScaler
	// Eval holds predicted vs measured times on the held-out rows
	// (Fig 5b / 6b).
	Eval *core.Evaluation
	// CounterSeries holds, per modeled counter, measured and modeled
	// values across the sweep (Fig 5c / 6c), ordered by size.
	CounterSeries []CounterSeries
}

// CounterSeries is one counter's measured-vs-modeled curve.
type CounterSeries struct {
	Counter  string
	Kind     string
	R2       float64
	Deviance float64
	Sizes    []float64
	Measured []float64
	Modeled  []float64
}

// RunMatMulPrediction reproduces Figure 5: matrix-multiply problem
// scaling. Counter models are GLMs where those fit ("built as generalized
// linear models because of their simplicity"), with MARS picking up the
// saturating counters a cubic basis cannot follow.
func RunMatMulPrediction(o Options) (*ProblemScaling, error) {
	return runProblemScaling("matmul", MatMulSweep(o), core.AutoModel, o)
}

// RunNWPrediction reproduces Figure 6: Needleman-Wunsch problem scaling
// with MARS counter models.
func RunNWPrediction(o Options) (*ProblemScaling, error) {
	return runProblemScaling("needle", NWSweep(o), core.MARSModel, o)
}

func runProblemScaling(name string, runs []profiler.Workload, kind core.ModelKind, o Options) (*ProblemScaling, error) {
	dev, err := gpusim.LookupDevice(trainDevice)
	if err != nil {
		return nil, err
	}
	frame, err := core.Collect(dev, runs, o.collectOptions())
	if err != nil {
		return nil, err
	}
	cfg := o.pipelineConfig()
	a, err := core.Analyze(frame, cfg)
	if err != nil {
		return nil, err
	}
	reduced, retained, err := a.Reduce(cfg.TopK, 0)
	if err != nil {
		return nil, err
	}
	scaler, err := core.NewProblemScaler(a, cfg.TopK, kind)
	if err != nil {
		return nil, err
	}
	eval, err := scaler.Evaluate(a.Test)
	if err != nil {
		return nil, err
	}

	res := &ProblemScaling{
		Workload:      name,
		Device:        dev.Name,
		Frame:         frame,
		Analysis:      a,
		Reduced:       reduced,
		RetainedPower: retained,
		Scaler:        scaler,
		Eval:          eval,
	}

	// Counter models vs measurements across the sweep (Fig 5c/6c).
	sizes := frame.MustColumn("size")
	names := make([]string, 0, len(scaler.Models))
	for n := range scaler.Models {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, cname := range names {
		cm := scaler.Models[cname]
		measured := frame.MustColumn(cname)
		modeled := make([]float64, len(sizes))
		for i, s := range sizes {
			chars := make([]float64, len(scaler.CharNames))
			for j, c := range scaler.CharNames {
				if c == "size" {
					chars[j] = s
				} else {
					chars[j], _ = frame.At(i, c)
				}
			}
			modeled[i] = cm.Predict(chars)
		}
		sx, sm := report.SortedByX(sizes, measured)
		_, sp := report.SortedByX(sizes, modeled)
		res.CounterSeries = append(res.CounterSeries, CounterSeries{
			Counter: cname, Kind: cm.Kind, R2: cm.TrainR2, Deviance: cm.ResidualDeviance,
			Sizes: sx, Measured: sm, Modeled: sp,
		})
	}
	return res, nil
}

// Render writes the figure-equivalent report.
func (r *ProblemScaling) Render(w io.Writer) error {
	fmt.Fprintf(w, "== %s on %s: problem scaling (%d runs) ==\n\n", r.Workload, r.Device, r.Frame.NumRows())
	fmt.Fprintf(w, "forest: OOB MSE %.4g, %%var explained %.1f%%; test MSE %.4g, R² %.3f\n",
		r.Analysis.OOBMSE, 100*r.Analysis.VarExplained, r.Analysis.TestMSE, r.Analysis.TestR2)
	fmt.Fprintf(w, "reduced model (top %d): test R² %.3f (power retained: %v)\n\n",
		len(r.Reduced.Predictors), r.Reduced.TestR2, r.RetainedPower)

	labels := make([]string, 0, 10)
	values := make([]float64, 0, 10)
	for i, imp := range r.Analysis.Importance {
		if i >= 10 {
			break
		}
		labels = append(labels, imp.Name)
		values = append(values, imp.PctIncMSE)
	}
	if err := report.BarChart(w, "(a) variable importance (%IncMSE)", labels, values, 40); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n(b) predicted vs measured execution time on held-out runs (MSE %.4g, R² %.3f)\n",
		r.Eval.MSE, r.Eval.R2)
	sizes := make([]float64, len(r.Eval.Chars))
	for i, c := range r.Eval.Chars {
		sizes[i] = c["size"]
	}
	sx, sMeas := report.SortedByX(sizes, r.Eval.Actual)
	_, sPred := report.SortedByX(sizes, r.Eval.Predicted)
	if err := report.XYChart(w, "", sx, []report.Series{
		{Name: "measured", Y: sMeas},
		{Name: "predicted", Y: sPred},
	}, 56, 12); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n(c) counter models (mean R² %.3f)\n", r.Scaler.AverageCounterR2())
	rows := make([][]string, 0, len(r.CounterSeries))
	for _, cs := range r.CounterSeries {
		rows = append(rows, []string{
			cs.Counter, cs.Kind, fmt.Sprintf("%.3f", cs.R2), fmt.Sprintf("%.3g", cs.Deviance),
		})
	}
	return report.Table(w, []string{"counter", "model", "R²", "resid.deviance"}, rows)
}

// HWScaling is the result of a §6.2 experiment (Figures 7 and 8).
type HWScaling struct {
	Workload string
	Result   *core.HWScaling
}

// RunHWScalingMM reproduces Figure 7: K20m matrix-multiply predictions
// from a GTX580-trained forest.
func RunHWScalingMM(o Options) (*HWScaling, error) {
	return runHWScaling("matmul", MatMulSweep(o), MatMulSweep(o), o)
}

// RunHWScalingNW reproduces Figure 8: the NW case where Fermi and Kepler
// importance rankings diverge and the mixed-variable workaround applies.
func RunHWScalingNW(o Options) (*HWScaling, error) {
	return runHWScaling("needle", NWSweep(o), NWSweep(o), o)
}

func runHWScaling(name string, trainRuns, targetRuns []profiler.Workload, o Options) (*HWScaling, error) {
	devA, err := gpusim.LookupDevice(trainDevice)
	if err != nil {
		return nil, err
	}
	devB, err := gpusim.LookupDevice(targetDevice)
	if err != nil {
		return nil, err
	}
	// Both devices' sweeps are profiled concurrently: the collections are
	// independent, and per-run noise identity makes the result equal to
	// two sequential Collect calls.
	coptA := o.collectOptions()
	coptB := coptA
	coptB.Seed = o.Seed ^ 0xca11b
	frameA, frameB, err := core.CollectPair(devA, trainRuns, coptA, devB, targetRuns, coptB)
	if err != nil {
		return nil, err
	}
	hw, err := core.HardwareScale(frameA, frameB, devA, devB, o.pipelineConfig())
	if err != nil {
		return nil, err
	}
	return &HWScaling{Workload: name, Result: hw}, nil
}

// Render writes the figure-equivalent report.
func (r *HWScaling) Render(w io.Writer) error {
	hw := r.Result
	fmt.Fprintf(w, "== %s: hardware scaling %s → %s ==\n\n", r.Workload, hw.TrainDevice, hw.TargetDevice)
	fmt.Fprintf(w, "(a) top variables on %s: %v\n", hw.TrainDevice, hw.TrainImportance)
	fmt.Fprintf(w, "(b) top variables on %s: %v\n", hw.TargetDevice, hw.TargetImportance)
	fmt.Fprintf(w, "importance similarity (rank corr): %.2f — %s\n\n",
		hw.Similarity, map[bool]string{true: "sufficiently similar, straightforward scaling applies",
			false: "not similar; mixed-variable workaround needed"}[hw.Similar])

	renderEval := func(title string, ev *core.Evaluation) error {
		fmt.Fprintf(w, "%s: MSE %.4g, R² %.3f\n", title, ev.MSE, ev.R2)
		sizes := make([]float64, len(ev.Chars))
		for i, c := range ev.Chars {
			sizes[i] = c["size"]
		}
		sx, sMeas := report.SortedByX(sizes, ev.Actual)
		_, sPred := report.SortedByX(sizes, ev.Predicted)
		return report.XYChart(w, "", sx, []report.Series{
			{Name: "measured", Y: sMeas},
			{Name: "predicted", Y: sPred},
		}, 56, 12)
	}
	if err := renderEval("(c) straightforward prediction", hw.Straightforward); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmixed variables: %v\n", hw.MixedVariables)
	return renderEval("(d) mixed-variable prediction", hw.Mixed)
}
