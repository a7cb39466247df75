package experiments

import (
	"fmt"
	"io"

	"blackforest/internal/gpusim"
	"blackforest/internal/kernels"
	"blackforest/internal/optimize"
	"blackforest/internal/report"
)

// OptimizerRow is one kernel × device outcome of the closed-loop search.
type OptimizerRow struct {
	Kernel string
	Device string
	Result *optimize.Result
}

// OptimizerStudy is the closed-loop optimization experiment: for every
// kernel in a small suite — some at their stock SDK launch configuration,
// some deliberately detuned — classify the bottleneck regime against the
// device roofline and run the guarded launch-config search on both the
// training and the hardware-scaling target device. It demonstrates the
// loop the analysis pipeline motivates: diagnose, transform, re-simulate,
// keep only validated wins.
type OptimizerStudy struct {
	Rows []OptimizerRow
}

// optimizerSuite builds the searched workloads. Stock entries show what
// the search finds (or honestly fails to find) in already-tuned SDK
// defaults; the detuned entries show recovery from a mis-configured
// launch.
func optimizerSuite(o Options) []struct {
	label string
	w     optimize.Tunable
} {
	n := 1 << 20
	mm := 512
	tr := 1024
	if o.Scale == Quick {
		n = 1 << 18
		mm = 256
		tr = 512
	}
	seed := o.Seed
	return []struct {
		label string
		w     optimize.Tunable
	}{
		{"matmul (stock)", &kernels.MatMul{N: mm, Seed: seed}},
		{"reduce3 (stock)", &kernels.Reduction{Variant: 3, N: n, BlockSize: 256, Seed: seed}},
		{"reduce6 (detuned)", &kernels.Reduction{Variant: 6, N: n, BlockSize: 64, MaxBlocks: 32, Seed: seed}},
		{"transpose0 (stock)", &kernels.Transpose{Variant: 0, N: tr, Seed: seed}},
		{"histogram1 (detuned)", &kernels.Histogram{Variant: 1, N: n, BlockSize: 64, Seed: seed}},
	}
}

// optimizeConfig assembles the search configuration for one device,
// wiring in the engine's cache, pool and tracer when present.
func (o Options) optimizeConfig(dev *gpusim.Device) optimize.Config {
	cfg := optimize.Config{
		Device:            dev,
		SearchSimBlocks:   o.maxSimBlocks() / 2,
		ValidateSimBlocks: o.maxSimBlocks(),
		Seed:              o.Seed,
	}
	if o.Engine != nil {
		cfg.Cache = o.Engine.cache
		cfg.Gate = o.Engine.gate
		cfg.Tracer = o.Engine.tracer
	}
	return cfg
}

// RunOptimizer runs the closed-loop search suite on the training device
// and the hardware-scaling target.
func RunOptimizer(o Options) (*OptimizerStudy, error) {
	out := &OptimizerStudy{}
	for _, devName := range []string{trainDevice, targetDevice} {
		dev, err := gpusim.LookupDevice(devName)
		if err != nil {
			return nil, err
		}
		cfg := o.optimizeConfig(dev)
		for _, entry := range optimizerSuite(o) {
			res, err := optimize.Optimize(entry.w, cfg)
			if err != nil {
				return nil, fmt.Errorf("optimizing %s on %s: %w", entry.label, devName, err)
			}
			out.Rows = append(out.Rows, OptimizerRow{Kernel: entry.label, Device: devName, Result: res})
		}
	}
	return out, nil
}

// Render writes the summary table plus one decision line per accepted
// transformation.
func (s *OptimizerStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== closed-loop optimizer: roofline regime + guarded launch-config search ==\n")
	rows := make([][]string, 0, len(s.Rows))
	for _, r := range s.Rows {
		res := r.Result
		rows = append(rows, []string{
			r.Kernel, r.Device, string(res.Classification.Regime),
			fmt.Sprintf("%.4g", res.Baseline.Cycles),
			fmt.Sprintf("%.4g", res.Final.Cycles),
			fmt.Sprintf("%+.1f%%", res.GainPct),
			fmt.Sprintf("%d/%d", res.Accepted, res.Tried),
			optimize.ParamsString(res.Final.Params),
		})
	}
	if err := report.Table(w, []string{"kernel", "device", "regime", "baseline", "final", "gain", "acc/tried", "final params"}, rows); err != nil {
		return err
	}
	for _, r := range s.Rows {
		for _, d := range r.Result.Decisions {
			if d.Outcome == optimize.OutcomeAccepted {
				fmt.Fprintf(w, "  %s on %s: step %d %s (from %d) — %s\n",
					r.Kernel, r.Device, d.Step, d.Transform, d.From, d.Reason)
			}
		}
	}
	return nil
}
