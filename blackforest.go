// Package blackforest is the public API of BlackForest, a reproduction of
// "A Tool for Bottleneck Analysis and Performance Prediction for
// GPU-accelerated Applications" (Madougou et al., IPPS 2016).
//
// BlackForest analyzes GPU kernel performance statistically: it profiles a
// kernel over many problem configurations, collects hardware performance
// counters, trains a random forest with execution time as the response,
// reads performance bottlenecks off the forest's variable importance and
// partial dependence (refined with PCA when needed), and predicts execution
// time for unseen problem sizes and unseen similar hardware.
//
// Because this repository runs without GPU hardware, profiling executes on
// a built-in warp-level GPU simulator with Fermi (GTX480/GTX580) and Kepler
// (K20m) device models; the CUDA SDK reduction kernels, tiled matrix
// multiply, and Rodinia Needleman-Wunsch are bundled as workloads.
//
// # Quick start
//
//	dev, _ := blackforest.LookupDevice("GTX580")
//	var runs []blackforest.Workload
//	for n := 4096; n <= 1<<20; n *= 2 {
//		runs = append(runs, &blackforest.Reduction{Variant: 2, N: n, BlockSize: 256})
//	}
//	frame, _ := blackforest.Collect(dev, runs, blackforest.CollectOptions{})
//	analysis, _ := blackforest.Analyze(frame, blackforest.DefaultConfig())
//	for _, imp := range analysis.Importance[:5] {
//		fmt.Println(imp.Name, imp.PctIncMSE)
//	}
package blackforest

import (
	"fmt"
	"io"

	"blackforest/internal/core"
	"blackforest/internal/cpusim"
	"blackforest/internal/dataset"
	"blackforest/internal/forest"
	"blackforest/internal/gpusim"
	"blackforest/internal/kernels"
	"blackforest/internal/mars"
	"blackforest/internal/pca"
	"blackforest/internal/profiler"
	"blackforest/internal/stepwise"
)

// Re-exported machine-model types.
type (
	// Device is a GPU hardware model (see LookupDevice, DeviceNames).
	Device = gpusim.Device
	// LaunchConfig describes one kernel launch's geometry and footprint.
	LaunchConfig = gpusim.LaunchConfig
	// Occupancy is the residency computed for a launch on a device.
	Occupancy = gpusim.Occupancy
)

// Re-exported profiling types.
type (
	// Workload is a profilable application (a sequence of kernel launches
	// plus problem characteristics).
	Workload = profiler.Workload
	// Profile is one profiled run: counters, characteristics, and time.
	Profile = profiler.Profile
	// ProfilerOptions configures the profiler front end.
	ProfilerOptions = profiler.Options
	// Profiler collects counters from workloads on one device.
	Profiler = profiler.Profiler
	// Gate bounds how many profiling runs simulate concurrently (see
	// NewGate, CollectOptions.Gate and ProfilerOptions.Gate).
	Gate = profiler.Gate
	// Releaser is the optional Workload interface for dropping large
	// per-run buffers once a run finishes.
	Releaser = profiler.Releaser
	// InputSeeded is the optional Workload interface exposing the
	// input-generation seed, which joins the per-run noise identity.
	InputSeeded = profiler.InputSeeded
)

// Re-exported workload implementations (the paper's benchmarks).
type (
	// Reduction is the CUDA SDK parallel-reduction family (variants 0–6).
	Reduction = kernels.Reduction
	// MatMul is the CUDA SDK tiled matrix multiplication.
	MatMul = kernels.MatMul
	// NeedlemanWunsch is the Rodinia NW sequence-alignment benchmark.
	NeedlemanWunsch = kernels.NeedlemanWunsch
	// Transpose is the CUDA SDK matrix-transpose optimization study
	// (naive / coalesced / padded variants).
	Transpose = kernels.Transpose
	// Histogram is the CUDA SDK 256-bin histogram atomics study
	// (global-atomics vs shared-privatized variants, with a skew knob).
	Histogram = kernels.Histogram
)

// Re-exported data and modeling types.
type (
	// Frame is the tabular container for collected profiles.
	Frame = dataset.Frame
	// Config controls the BlackForest pipeline.
	Config = core.Config
	// CollectOptions controls data collection.
	CollectOptions = core.CollectOptions
	// Analysis is a fitted forest with validation and importance.
	Analysis = core.Analysis
	// Bottleneck is one diagnosed performance limiter.
	Bottleneck = core.Bottleneck
	// PCARefinement is the stage-4 PCA over the predictors.
	PCARefinement = core.PCARefinement
	// ProblemScaler predicts time for unseen problem characteristics.
	ProblemScaler = core.ProblemScaler
	// CounterModel maps problem characteristics to one counter's value.
	CounterModel = core.CounterModel
	// ModelKind selects GLM, MARS, or automatic counter models.
	ModelKind = core.ModelKind
	// Evaluation is a predicted-vs-measured comparison.
	Evaluation = core.Evaluation
	// HWScaling is a hardware-scaling experiment result.
	HWScaling = core.HWScaling
	// Forest is the underlying random forest regressor.
	Forest = forest.Forest
	// Importance is one predictor's importance record.
	Importance = forest.Importance
	// ForestConfig controls forest training.
	ForestConfig = forest.Config
	// PCA is a fitted principal component analysis.
	PCA = pca.Result
	// MARS is a fitted multivariate-adaptive-regression-splines model.
	MARS = mars.Model
)

// Counter-model kinds.
const (
	// AutoModel picks GLM when it fits nearly perfectly, MARS otherwise.
	AutoModel = core.AutoModel
	// GLMModel forces generalized linear counter models.
	GLMModel = core.GLMModel
	// MARSModel forces MARS counter models.
	MARSModel = core.MARSModel
)

// ResponseColumn is the default response variable's column name ("time_ms").
const ResponseColumn = core.ResponseColumn

// PowerColumn names the alternative power-draw response ("power_w") for
// the paper's §7 extension.
const PowerColumn = core.PowerColumn

// LookupDevice returns the named GPU model (GTX480, GTX580, or K20m).
func LookupDevice(name string) (*Device, error) { return gpusim.LookupDevice(name) }

// DeviceNames lists the available GPU models.
func DeviceNames() []string { return gpusim.DeviceNames() }

// NewProfiler builds an nvprof-style profiler for a device.
func NewProfiler(dev *Device, opt ProfilerOptions) *Profiler { return profiler.New(dev, opt) }

// NewGate builds a gate admitting n concurrent profiling runs (n <= 0
// selects all CPUs).
func NewGate(n int) Gate { return profiler.NewGate(n) }

// FrameFromProfiles tabulates profiles (from the GPU or CPU profiler) into
// a modeling frame, dropping zero-variance counters. A batch with counters
// lost to dropout is an error; Collect repairs and reports those.
func FrameFromProfiles(profiles []*Profile) (*Frame, error) {
	f, deg, err := core.Tabulate(profiles, 0)
	if err != nil {
		return nil, err
	}
	if deg != nil {
		return nil, fmt.Errorf("blackforest: %s", deg)
	}
	return f.DropConstantColumns(ResponseColumn, PowerColumn), nil
}

// DefaultConfig returns the paper's pipeline configuration: 80:20 split,
// 500-tree forest with mtry=p/3, top-7 retention, 96% PCA variance target.
func DefaultConfig() Config { return core.DefaultConfig() }

// Collect profiles every workload run on the device and assembles the
// modeling frame (stage 1 of the pipeline).
func Collect(dev *Device, runs []Workload, opt CollectOptions) (*Frame, error) {
	return core.Collect(dev, runs, opt)
}

// Analyze builds and validates the random forest (stages 2–3): random
// split, forest fit, test metrics, and variable importance.
func Analyze(frame *Frame, cfg Config) (*Analysis, error) { return core.Analyze(frame, cfg) }

// NewProblemScaler builds a predictor for unseen problem sizes (§6.1):
// top-k counter selection, per-counter models, and the reduced forest.
func NewProblemScaler(a *Analysis, k int, kind ModelKind) (*ProblemScaler, error) {
	return core.NewProblemScaler(a, k, kind)
}

// HardwareScale runs the §6.2 experiment: predict execution times on a
// target GPU from a forest trained on another device plus a calibration
// subset, with the importance-similarity test and the mixed-variable
// workaround.
func HardwareScale(frameTrain, frameTarget *Frame, devTrain, devTarget *Device, cfg Config) (*HWScaling, error) {
	return core.HardwareScale(frameTrain, frameTarget, devTrain, devTarget, cfg)
}

// InjectMachineCharacteristics extends a frame with the device's Table 2
// hardware metrics as constant columns.
func InjectMachineCharacteristics(frame *Frame, dev *Device) (*Frame, error) {
	return core.InjectMachineCharacteristics(frame, dev)
}

// Re-exported CPU-substrate types (§7 heterogeneous extension).
type (
	// CPU is a multicore processor model (see LookupCPU, CPUNames).
	CPU = cpusim.CPU
	// CPUWorkload is a CPU-profilable application.
	CPUWorkload = cpusim.Workload
	// CPUProfiler profiles CPU workloads into the same frames.
	CPUProfiler = cpusim.Profiler
	// CPUReduction is the multicore SIMD sum reduction.
	CPUReduction = cpusim.CPUReduction
	// CPUMatMulWorkload is the cache-blocked multicore matrix multiply.
	CPUMatMulWorkload = cpusim.CPUMatMul
	// CPUNeedlemanWunsch is the wavefront-parallel DP fill.
	CPUNeedlemanWunsch = cpusim.CPUNeedlemanWunsch
)

// LookupCPU returns the named CPU model (XeonE5 or CoreI7).
func LookupCPU(name string) (*CPU, error) { return cpusim.LookupCPU(name) }

// CPUNames lists the available CPU models.
func CPUNames() []string { return cpusim.CPUNames() }

// NewCPUProfiler builds a PAPI-style profiler over the CPU model; its
// Profiles feed the same pipeline as GPU ones.
func NewCPUProfiler(cpu *CPU, noiseSigma float64, seed uint64) *CPUProfiler {
	return cpusim.NewProfiler(cpu, noiseSigma, seed)
}

// LoadForest reads a forest saved with Forest.Save. The loaded model
// predicts and reports importance; partial dependence needs the training
// data and is unavailable.
func LoadForest(r io.Reader) (*Forest, error) { return forest.Load(r) }

// StepwiseModel is the Stargazer-style stepwise linear regression used as
// the related-work baseline the forest is compared against.
type StepwiseModel = stepwise.Model

// StepwiseConfig controls the stepwise search.
type StepwiseConfig = stepwise.Config

// FitStepwise fits the stepwise-regression baseline on a design matrix.
func FitStepwise(x [][]float64, y []float64, names []string, cfg StepwiseConfig) (*StepwiseModel, error) {
	return stepwise.Fit(x, y, names, cfg)
}

// PCAFirstAnalysis is the §7 "PCA-first" pipeline variant: the forest is
// trained on principal-component scores instead of raw counters.
type PCAFirstAnalysis = core.PCAFirstAnalysis

// AnalyzePCAFirst rotates the counters to principal components before
// fitting the forest — the paper's planned remedy for diffuse importance
// over correlated counters.
func AnalyzePCAFirst(frame *Frame, cfg Config) (*PCAFirstAnalysis, error) {
	return core.AnalyzePCAFirst(frame, cfg)
}
