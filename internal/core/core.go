// Package core implements BlackForest itself — the paper's contribution:
// a statistical performance-analysis pipeline over GPU hardware performance
// counters. The five stages of §4.2 map onto this package as follows:
//
//  1. Data collection        — Collect (profiles a workload sweep into a frame)
//  2. RF construction and
//     validation             — Analyze (80:20 split, forest fit, test metrics)
//  3. Variable importance    — Analysis.Importance, Analysis.Reduce (top-k
//     refit with predictive-power check), partial dependence
//  4. Refinement with PCA    — Analysis.PCARefine (components, loadings,
//     varimax)
//  5. Results interpretation — bottleneck classification (bottleneck.go),
//     counter models in problem characteristics (scaling.go), problem-
//     and hardware-scaling prediction (scaling.go, hwscale.go)
package core

import (
	"errors"
	"fmt"
	"time"

	"blackforest/internal/dataset"
	"blackforest/internal/faults"
	"blackforest/internal/forest"
	"blackforest/internal/gpusim"
	"blackforest/internal/obs"
	"blackforest/internal/profiler"
	"blackforest/internal/runcache"
)

// ResponseColumn is the default response variable in collected frames.
const ResponseColumn = "time_ms"

// PowerColumn is the alternative response of the paper's §7 extension:
// average power draw, as read from the board sensor (modeled here by the
// simulator's energy model).
const PowerColumn = "power_w"

// responseColumns lists every column that is a response rather than a
// predictor; whichever is not being modeled is excluded from the
// predictor set (it would leak the answer).
var responseColumns = []string{ResponseColumn, PowerColumn}

// Config controls the modeling pipeline.
type Config struct {
	// Response is the response column: ResponseColumn (default) or
	// PowerColumn for the paper's §7 power-modeling extension.
	Response string
	// TrainFrac is the training share of the random split (paper: 0.8).
	TrainFrac float64
	// Forest configures the random forest.
	Forest forest.Config
	// TopK is how many of the most important predictors the reduced
	// model retains (paper: "usually between 6 and 8").
	TopK int
	// PCAVariance is the explained-variance target for component
	// retention in the PCA refinement (paper: ≥96–97%).
	PCAVariance float64
	// Seed drives the split and the forest.
	Seed uint64
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		TrainFrac:   0.8,
		Forest:      forest.DefaultConfig(),
		TopK:        7,
		PCAVariance: 0.96,
	}
}

// withDefaults returns c with every unset or out-of-range TrainFrac, TopK
// and PCAVariance replaced by its DefaultConfig value. Every analysis
// entry point applies it.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.TrainFrac <= 0 || c.TrainFrac >= 1 {
		c.TrainFrac = d.TrainFrac
	}
	if c.TopK <= 0 {
		c.TopK = d.TopK
	}
	if c.PCAVariance <= 0 || c.PCAVariance > 1 {
		c.PCAVariance = d.PCAVariance
	}
	return c
}

// CollectOptions controls data collection.
type CollectOptions struct {
	// MaxSimBlocks caps per-launch detailed simulation (0 = all blocks).
	MaxSimBlocks int
	// NoiseSigma is the profiler's measurement noise (0 = default 1.5%,
	// negative = none).
	NoiseSigma float64
	// Seed seeds the profiler noise.
	Seed uint64
	// Faults optionally injects simulated collection failures; nil (the
	// default) leaves collection bit-identical to historic behavior.
	Faults *faults.Injector
	// Retries is how many extra attempts a failed run gets (0 = fail
	// fast).
	Retries int
	// RetryBackoff is the base delay between attempts (attempt k waits
	// RetryBackoff << k-1).
	RetryBackoff time.Duration
	// MinCompleteness is the column-completeness threshold for degraded
	// collections (0 selects DefaultMinCompleteness). Counter columns
	// below it are dropped; at or above it, missing cells are
	// mean-imputed.
	MinCompleteness float64
	// Cache optionally memoizes profiled runs content-addressed by their
	// identity (see profiler.RunKey). Hits are bit-identical to
	// recomputes; identical in-flight runs coalesce. Nil disables.
	Cache *runcache.Cache[*profiler.Profile]
	// Gate bounds how many runs simulate concurrently; sharing one gate
	// across concurrent collections drains a suite of experiments through
	// one global scheduler. Nil gives the collection its own gate of
	// min(NumCPU, len(runs)) slots. Every gate size produces the same
	// frame bit for bit — per-run noise derives from the workload
	// identity, not from sweep position.
	Gate profiler.Gate
	// Tracer optionally records profiling spans (run → attempt →
	// simulate, one lane per worker slot) and cache-hit instants. Nil
	// disables tracing; collected frames are bit-identical either way.
	Tracer *obs.Tracer
}

// Collect profiles every workload run on the device and assembles the
// modeling frame: one row per run with problem characteristics, all
// counters available on the device's architecture, and the response
// column time_ms. Constant (zero-variance) counters are dropped — they
// cannot inform the forest. Runs are profiled concurrently through
// CollectOptions.Gate; rows keep input order regardless.
func Collect(dev *gpusim.Device, runs []profiler.Workload, opt CollectOptions) (*dataset.Frame, error) {
	frame, _, err := CollectWithReport(dev, runs, opt)
	return frame, err
}

// CollectWithReport is Collect plus the degradation report: when fault
// injection (or a future lossy collector) leaves counters missing from
// some runs, the returned Degradation records which columns were dropped
// or mean-imputed. It is nil for a complete collection, whose frame is
// bit-identical to historic Collect output.
func CollectWithReport(dev *gpusim.Device, runs []profiler.Workload, opt CollectOptions) (*dataset.Frame, *Degradation, error) {
	if len(runs) == 0 {
		return nil, nil, errors.New("core: no runs to collect")
	}
	p := profiler.New(dev, profiler.Options{
		MaxSimBlocks: opt.MaxSimBlocks,
		NoiseSigma:   opt.NoiseSigma,
		Seed:         opt.Seed,
		Faults:       opt.Faults,
		Retries:      opt.Retries,
		RetryBackoff: opt.RetryBackoff,
		Cache:        opt.Cache,
		Gate:         opt.Gate,
		Tracer:       opt.Tracer,
	})
	profiles, err := p.RunAll(runs)
	if err != nil {
		return nil, nil, fmt.Errorf("core: collecting: %w", err)
	}
	frame, deg, err := Tabulate(profiles, opt.MinCompleteness)
	if err != nil {
		return nil, nil, err
	}
	return frame.DropConstantColumns(responseColumns...), deg, nil
}

// Predictors returns the frame's predictor columns: everything except the
// response columns (time and power — whichever is not being modeled must
// not be a predictor either, since each nearly determines the other).
func Predictors(frame *dataset.Frame) []string {
	var out []string
	for _, n := range frame.Names() {
		if !isResponse(n) {
			out = append(out, n)
		}
	}
	return out
}

// isResponse reports whether the column is a response variable.
func isResponse(name string) bool {
	for _, r := range responseColumns {
		if name == r {
			return true
		}
	}
	return false
}

// response returns the configured response column name.
func (c Config) response() string {
	if c.Response == "" {
		return ResponseColumn
	}
	return c.Response
}
