package experiments

import (
	"fmt"
	"io"

	"blackforest/internal/core"
	"blackforest/internal/gpusim"
	"blackforest/internal/report"
)

// PowerPrediction is the §7 extension experiment: "our method is not
// limited to predicting execution time - one could use other metrics of
// interest, such as power, as response variable". The same pipeline runs
// with average power draw as the response: importance identifies the
// functional units driving consumption, and the problem scaler predicts
// power for unseen sizes.
type PowerPrediction struct {
	Workload string
	Device   string
	Analysis *core.Analysis
	Scaler   *core.ProblemScaler
	// Eval compares predicted and measured power on held-out runs.
	Eval *core.Evaluation
	// PerfPerWatt lists size → measured GFLOP/s-per-watt-style efficiency
	// proxy (1/(time·power), arbitrary units), the paper's "computing
	// efficiency in terms of performance per watt".
	PerfPerWattSizes  []float64
	PerfPerWattValues []float64
}

// RunPowerPrediction runs the power-response pipeline on the matrix
// multiply sweep.
func RunPowerPrediction(o Options) (*PowerPrediction, error) {
	dev, err := gpusim.LookupDevice(trainDevice)
	if err != nil {
		return nil, err
	}
	frame, err := core.Collect(dev, MatMulSweep(o), o.collectOptions())
	if err != nil {
		return nil, err
	}
	cfg := o.pipelineConfig()
	cfg.Response = core.PowerColumn
	a, err := core.Analyze(frame, cfg)
	if err != nil {
		return nil, err
	}
	scaler, err := core.NewProblemScaler(a, cfg.TopK, core.AutoModel)
	if err != nil {
		return nil, err
	}
	eval, err := scaler.Evaluate(a.Test)
	if err != nil {
		return nil, err
	}

	res := &PowerPrediction{
		Workload: "matmul",
		Device:   dev.Name,
		Analysis: a,
		Scaler:   scaler,
		Eval:     eval,
	}
	sizes := frame.MustColumn("size")
	times := frame.MustColumn(core.ResponseColumn)
	powers := frame.MustColumn(core.PowerColumn)
	eff := make([]float64, len(sizes))
	for i := range eff {
		// Work ∝ n³; efficiency = work / (time · power) = work/energy.
		n := sizes[i]
		eff[i] = 2 * n * n * n / (times[i] * 1e-3 * powers[i]) / 1e9 // GFLOP/J
	}
	res.PerfPerWattSizes, res.PerfPerWattValues = report.SortedByX(sizes, eff)
	return res, nil
}

// Render writes the extension report.
func (r *PowerPrediction) Render(w io.Writer) error {
	fmt.Fprintf(w, "== extension: power as response variable (%s on %s) ==\n\n", r.Workload, r.Device)
	fmt.Fprintf(w, "forest: %%var explained %.1f%%, test R² %.3f\n\n",
		100*r.Analysis.VarExplained, r.Analysis.TestR2)

	labels := make([]string, 0, 8)
	values := make([]float64, 0, 8)
	for i, imp := range r.Analysis.Importance {
		if i >= 8 {
			break
		}
		labels = append(labels, imp.Name)
		values = append(values, imp.PctIncMSE)
	}
	if err := report.BarChart(w, "counters driving power draw (%IncMSE)", labels, values, 40); err != nil {
		return err
	}

	fmt.Fprintf(w, "\npredicted vs measured power on held-out runs (MSE %.4g, R² %.3f)\n",
		r.Eval.MSE, r.Eval.R2)
	sizes := make([]float64, len(r.Eval.Chars))
	for i, c := range r.Eval.Chars {
		sizes[i] = c["size"]
	}
	sx, sMeas := report.SortedByX(sizes, r.Eval.Actual)
	_, sPred := report.SortedByX(sizes, r.Eval.Predicted)
	if err := report.XYChart(w, "", sx, []report.Series{
		{Name: "measured_W", Y: sMeas},
		{Name: "predicted_W", Y: sPred},
	}, 56, 12); err != nil {
		return err
	}

	fmt.Fprintln(w, "\ncomputing efficiency (GFLOP/J) across sizes:")
	return report.XYChart(w, "", r.PerfPerWattSizes,
		[]report.Series{{Name: "GFLOP/J", Y: r.PerfPerWattValues}}, 56, 10)
}
