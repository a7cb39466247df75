// Package profiler is BlackForest's nvprof stand-in: it runs a workload
// (a sequence of kernel launches) on a simulated device, aggregates the raw
// event counts across launches, derives the nvprof-style metrics, and
// reports them together with the measured execution time.
//
// Like a real profiler, it injects a small amount of multiplicative
// measurement noise into the reported time (seeded, reproducible), so the
// statistical pipeline downstream never sees an implausibly clean response.
// Each run's noise is a pure function of the profiler seed and the
// workload's identity — never of how many runs were profiled before it —
// so sweeps may be reordered or profiled concurrently without changing any
// profile.
package profiler

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"blackforest/internal/counters"
	"blackforest/internal/faults"
	"blackforest/internal/gpusim"
	"blackforest/internal/obs"
	"blackforest/internal/runcache"
	"blackforest/internal/stats"
)

// LaneCache is the trace lane for cache events (hits and coalesced waits),
// which never occupy a worker slot and so have no worker lane of their own.
const LaneCache = -1

// Launch is one kernel launch of a workload.
type Launch struct {
	// Label names the kernel for reporting (e.g. "reduce2", "nw_kernel1").
	Label  string
	Config gpusim.LaunchConfig
	Kernel gpusim.KernelFunc
}

// Workload is a profilable application: it plans its kernel launches for a
// device and exposes the problem characteristics the paper injects as
// predictors (e.g. matrix size, sequence length).
type Workload interface {
	// Name identifies the workload (e.g. "matmul").
	Name() string
	// Plan returns the launch sequence. Functional state (input/output
	// buffers) is captured in the kernel closures.
	Plan(dev *gpusim.Device) ([]Launch, error)
	// Characteristics returns the problem parameters as named values.
	Characteristics() map[string]float64
}

// Releaser is the optional interface of workloads that hold per-run
// buffers (the kernels' paged output stores, such as NW's score tiles).
// RunAll releases every planned workload once its run finishes — error or
// not — so sweeps do not accumulate memory.
type Releaser interface{ Release() }

// InputSeeded is the optional interface of workloads whose input data is
// generated from a seed. The seed joins the noise-identity hash, so
// repeated runs at the same problem configuration (fresh inputs, same
// size) still draw independent measurement noise.
type InputSeeded interface{ InputSeed() uint64 }

// Options configures profiling.
type Options struct {
	// MaxSimBlocks caps detailed simulation per launch; 0 simulates all
	// blocks (needed for functional verification, slow for big grids).
	MaxSimBlocks int
	// NoiseSigma is the standard deviation of the lognormal measurement
	// noise applied to the run time. Negative disables noise; 0 selects
	// the default of 0.015 (≈1.5%).
	NoiseSigma float64
	// Seed drives the noise generator.
	Seed uint64
	// Faults optionally injects simulated collection failures (failed
	// runs, counter dropout). Decisions key on the same workload identity
	// as the measurement noise, so they are reproducible and independent
	// of sweep order or concurrency. Nil disables injection.
	Faults *faults.Injector
	// Retries is the number of additional attempts RunAll makes when a
	// run fails (0 = fail fast, matching historic behavior).
	Retries int
	// RetryBackoff is the base delay between attempts; attempt k (k ≥ 1)
	// sleeps RetryBackoff << (k-1). Zero retries immediately.
	RetryBackoff time.Duration
	// Cache optionally memoizes completed runs, content-addressed by
	// RunKey. A hit is bit-identical to a recompute; concurrent requests
	// for the same run share one simulation. Cached profiles are shared
	// between callers and must be treated as immutable. Nil disables
	// caching (bit-identical to historic behavior — trivially, since a
	// cold cache computes exactly what no cache computes).
	Cache *runcache.Cache[*Profile]
	// Gate bounds concurrent simulations: every run holds one of its
	// slots while it simulates. Sharing one gate across collections lets
	// concurrent sweeps (or whole experiment suites) saturate the machine
	// together without oversubscribing it. Nil leaves Run ungated and
	// gives each RunAll its own gate of min(NumCPU, len(runs)) slots.
	Gate Gate
	// Tracer optionally records run → attempt → simulate spans, one lane
	// per gate slot, plus cache-hit instants. Nil (the default) disables
	// tracing at zero cost; every profile is bit-identical either way.
	Tracer *obs.Tracer
}

// Profile is the result of profiling one workload run: the paper's unit of
// observation (one row of the training data).
type Profile struct {
	Workload        string
	Device          string
	Characteristics map[string]float64
	// Metrics maps counter/metric names (per the device architecture) to
	// values aggregated over all launches.
	Metrics map[string]float64
	// TimeMS is the measured (noisy) total execution time — the response
	// variable of the paper's models.
	TimeMS float64
	// ModelTimeMS is the noise-free modeled time.
	ModelTimeMS float64
	// PowerW is the measured (noisy) average power draw over the run —
	// the alternative response variable of the paper's §7 extension.
	PowerW float64
	// EnergyMJ is the modeled total energy in millijoules.
	EnergyMJ float64
	// Launches is the number of kernel launches executed.
	Launches int
	// Bottlenecks counts launches per binding bottleneck term.
	Bottlenecks map[string]int
	// Cycles is the modeled core-cycle total summed over all launches.
	Cycles float64
	// Breakdown attributes Cycles to stall/work categories, summed over
	// all launches; Breakdown.Total() equals Cycles exactly.
	Breakdown gpusim.BottleneckBreakdown
	// ComputeOps is the total thread-level arithmetic work (int + float +
	// weighted special ops, the same mix the timing model's alu term
	// charges) summed over all launches. With DRAMBytes it fixes the
	// run's arithmetic intensity — its position on the device roofline.
	ComputeOps float64
	// DRAMBytes is the total DRAM traffic (reads + writes) over all
	// launches.
	DRAMBytes float64
	// Dropped lists counter names lost to injected dropout for this run,
	// sorted. Empty in normal operation; downstream frame assembly uses
	// it to decide between dropping and imputing incomplete columns.
	Dropped []string
}

// Profiler profiles workloads on one device. It is immutable after New and
// safe for concurrent use by multiple goroutines: every run holds a
// simulator of its own, and measurement noise is drawn from a per-run
// generator seeded by the workload's identity rather than from a shared
// stream.
type Profiler struct {
	dev  *gpusim.Device
	opt  Options
	sims *sync.Pool
}

// simulators pools simulators (caches plus block workspace) per device
// configuration, across runs and profilers: a run takes one, resets its
// caches — which makes it compute exactly what a new one would — and
// returns it when done.
var simulators sync.Map // gpusim.Device → *sync.Pool

func simulatorPool(dev *gpusim.Device) *sync.Pool {
	if p, ok := simulators.Load(*dev); ok {
		return p.(*sync.Pool)
	}
	d := *dev // a caller may change its device after the pool is made
	p, _ := simulators.LoadOrStore(d, &sync.Pool{New: func() any { return gpusim.NewSimulator(&d) }})
	return p.(*sync.Pool)
}

// New builds a profiler for the device.
func New(dev *gpusim.Device, opt Options) *Profiler {
	if opt.NoiseSigma == 0 {
		opt.NoiseSigma = 0.015
	}
	if opt.NoiseSigma < 0 {
		opt.NoiseSigma = 0
	}
	return &Profiler{dev: dev, opt: opt, sims: simulatorPool(dev)}
}

// Device returns the profiled device.
func (p *Profiler) Device() *gpusim.Device { return p.dev }

// Identity is what names a run for measurement noise and fault
// injection: every Workload has one, and so does a CPU workload.
type Identity interface {
	Name() string
	Characteristics() map[string]float64
}

// identityHash folds the workload's identity (name, characteristics,
// input seed) into an FNV-1a hash. It keys both measurement noise and
// fault injection, so neither depends on sweep position.
func identityHash(w Identity) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	byte8 := func(x uint64) {
		for i := 0; i < 64; i += 8 {
			h = (h ^ (x >> i & 0xff)) * prime64
		}
	}
	name := w.Name()
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	chars := w.Characteristics()
	for _, k := range sortedKeys(chars) {
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * prime64
		}
		byte8(math.Float64bits(chars[k]))
	}
	if s, ok := w.(InputSeeded); ok {
		byte8(s.InputSeed())
	}
	return h
}

// NoiseSeed derives the measurement-noise seed for one run of w under a
// profiler seed: the identity hash mixed with the seed, splitmix-finalized
// the same way forest.Fit derives its per-tree seeds. Because position in
// the sweep never enters the hash, reordering or parallelizing a
// collection cannot change any profile.
func NoiseSeed(w Identity, seed uint64) uint64 {
	return stats.SplitMix64(identityHash(w) ^ stats.SplitMix64(seed^0x70726f66))
}

// Run profiles one workload run end to end, consulting Options.Cache
// when one is configured and drawing a slot from Options.Gate (if set)
// for the simulation itself. With fault injection configured, a run that
// the injector fails reports an error wrapping faults.ErrInjected; Run
// is always "attempt 0" and never releases the workload (RunAll drives
// later attempts and releases).
func (p *Profiler) Run(w Workload) (*Profile, error) {
	return p.scheduled(w, p.opt.Gate, false)
}

func (p *Profiler) run(w Workload, attempt, lane int) (*Profile, error) {
	launches, err := w.Plan(p.dev)
	if err != nil {
		return nil, fmt.Errorf("profiler: planning %s: %w", w.Name(), err)
	}
	if len(launches) == 0 {
		return nil, errors.New("profiler: workload planned zero launches")
	}
	if p.opt.Faults != nil && p.opt.Faults.FailRun(identityHash(w), attempt) {
		return nil, fmt.Errorf("profiler: collecting %s (attempt %d): %w", w.Name(), attempt+1, faults.ErrInjected)
	}

	sim := p.sims.Get().(*gpusim.Simulator)
	defer p.sims.Put(sim)
	sim.ResetCaches()
	var agg counters.Sample
	var breakdown gpusim.BottleneckBreakdown
	var occWeighted, smWeighted, energyMJ float64
	bottlenecks := make(map[string]int)
	simSpan := p.opt.Tracer.Begin(lane, "simulate").
		Arg("workload", w.Name()).
		Arg("launches", fmt.Sprint(len(launches)))
	for _, l := range launches {
		res, err := sim.Launch(l.Config, l.Kernel, gpusim.LaunchOptions{MaxSimBlocks: p.opt.MaxSimBlocks})
		if err != nil {
			simSpan.End()
			return nil, fmt.Errorf("profiler: launching %s/%s: %w", w.Name(), l.Label, err)
		}
		agg.Raw.Add(&res.Counters)
		agg.Cycles += res.Cycles
		agg.TimeMS += res.TimeMS
		occWeighted += res.AchievedOccupancy * res.Cycles
		smWeighted += res.Occupancy.TailUtilization * res.Cycles
		energyMJ += res.EnergyMJ
		bottlenecks[res.Bottleneck]++
		breakdown.Add(&res.Breakdown)
	}
	simSpan.End()
	// Re-pin after summation: per-launch totals are exact, but summing the
	// six fields independently associates differently than summing Cycles.
	breakdown.PinTotal(agg.Cycles)
	if agg.Cycles > 0 {
		agg.AchievedOccupancy = occWeighted / agg.Cycles
		agg.SMEfficiency = smWeighted / agg.Cycles
	}

	modelTime := agg.TimeMS
	measured := modelTime
	power := averagePower(energyMJ, modelTime)
	if p.opt.NoiseSigma > 0 {
		rng := stats.NewRNG(NoiseSeed(w, p.opt.Seed))
		measured *= math.Exp(p.opt.NoiseSigma * rng.NormFloat64())
		power *= math.Exp(p.opt.NoiseSigma * rng.NormFloat64())
	}
	agg.TimeMS = measured

	metrics := counters.Derive(p.dev, agg)
	var dropped []string
	if p.opt.Faults != nil {
		id := identityHash(w)
		for _, name := range sortedKeys(metrics) {
			if p.opt.Faults.DropCounter(id, name) {
				delete(metrics, name)
				dropped = append(dropped, name)
			}
		}
	}

	return &Profile{
		Workload:        w.Name(),
		Device:          p.dev.Name,
		Characteristics: w.Characteristics(),
		Metrics:         metrics,
		TimeMS:          measured,
		ModelTimeMS:     modelTime,
		PowerW:          power,
		EnergyMJ:        energyMJ,
		Launches:        len(launches),
		Bottlenecks:     bottlenecks,
		Cycles:          agg.Cycles,
		Breakdown:       breakdown,
		ComputeOps: float64(agg.Raw.IntThreadOps + agg.Raw.FloatThreadOps +
			4*agg.Raw.SpecialThreadOps),
		DRAMBytes: float64(agg.Raw.DRAMReadBytes + agg.Raw.DRAMWriteBytes),
		Dropped:   dropped,
	}, nil
}

// averagePower returns the mean power draw in watts (mJ over ms). A
// degenerate run with ~zero modeled time would divide to Inf/NaN and
// poison every downstream frame; it reports 0 W instead.
func averagePower(energyMJ, modelTimeMS float64) float64 {
	if modelTimeMS <= 0 {
		return 0
	}
	p := energyMJ / modelTimeMS
	if math.IsInf(p, 0) || math.IsNaN(p) {
		return 0
	}
	return p
}

// RunAll profiles every workload and returns the profiles in input
// order. Runs draw slots from Options.Gate, so concurrent collections
// sharing a gate are scheduled globally; with no gate, RunAll builds one
// with min(NumCPU, len(runs)) slots. With Options.Cache set, only actual
// simulations take a slot, and identical in-flight runs (within or across
// collections) coalesce into one. Because each run's noise derives
// from its identity, the result is bit-for-bit identical for every gate
// size, and independent of input order modulo slice order. Workloads
// implementing Releaser are released as soon as each attempt finishes,
// including runs that fail after planning; the error of the earliest run
// in input order wins. A failed run is retried up to Options.Retries
// times with exponential backoff (each attempt re-plans the workload, so
// released buffers are rebuilt) before its error is reported.
func (p *Profiler) RunAll(runs []Workload) ([]*Profile, error) {
	gate := p.opt.Gate
	if gate == nil {
		gate = NewGate(min(runtime.NumCPU(), len(runs)))
	}
	profiles := make([]*Profile, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, w := range runs {
		wg.Add(1)
		go func(i int, w Workload) {
			defer wg.Done()
			profiles[i], errs[i] = p.scheduled(w, gate, true)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("profiler: run %d (%s): %w", i, runs[i].Name(), err)
		}
	}
	return profiles, nil
}

// scheduled is one scheduled run: a cache hit (or a coalesced wait on an
// identical in-flight run) returns without ever taking a slot; a real
// simulation holds one slot of gate (lane 0 when gate is nil) for its
// duration. With retry it is RunAll's run — up to 1+Retries attempts,
// each released — otherwise Run's single unreleased attempt 0.
func (p *Profiler) scheduled(w Workload, gate Gate, retry bool) (*Profile, error) {
	computed := false
	compute := func() (*Profile, error) {
		computed = true
		lane := 0
		if gate != nil {
			lane = gate.enter()
			defer gate.leave(lane)
		}
		sp := p.opt.Tracer.Begin(lane, "run "+w.Name())
		defer sp.End()
		if !retry {
			return p.run(w, 0, lane)
		}
		return p.runWithRetry(w, lane)
	}
	if p.opt.Cache == nil {
		return compute()
	}
	prof, err := p.opt.Cache.Do(p.RunKey(w), compute)
	if !computed && err == nil {
		p.opt.Tracer.Instant(LaneCache, "cache-hit", obs.Arg{Key: "workload", Value: w.Name()})
	}
	return prof, err
}

// runWithRetry drives one workload through up to 1+Retries attempts.
func (p *Profiler) runWithRetry(w Workload, lane int) (*Profile, error) {
	var lastErr error
	for attempt := 0; attempt <= p.opt.Retries; attempt++ {
		if attempt > 0 && p.opt.RetryBackoff > 0 {
			time.Sleep(p.opt.RetryBackoff << (attempt - 1))
		}
		asp := p.opt.Tracer.Begin(lane, "attempt").Arg("n", fmt.Sprint(attempt+1))
		prof, err := p.run(w, attempt, lane)
		if err != nil {
			asp.Arg("error", "true")
		}
		asp.End()
		// Release unconditionally: a failed launch may already have
		// written pages of the workload's paged store.
		if rel, ok := w.(Releaser); ok {
			rel.Release()
		}
		if err == nil {
			return prof, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// MetricNames returns the profile's metric names, sorted.
func (pr *Profile) MetricNames() []string {
	names := make([]string, 0, len(pr.Metrics))
	for n := range pr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DominantBottleneck returns the bottleneck term that bound the most
// launches.
func (pr *Profile) DominantBottleneck() string {
	best, bestN := "", -1
	keys := make([]string, 0, len(pr.Bottlenecks))
	for k := range pr.Bottlenecks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if pr.Bottlenecks[k] > bestN {
			best, bestN = k, pr.Bottlenecks[k]
		}
	}
	return best
}
