// Package cpusim is the CPU substrate for the paper's §7 heterogeneous
// extension ("we believe our approach is very useful in the context of
// emerging CPU+GPUs heterogeneous systems … by first proving BF's usability
// on CPUs"). It models a multicore CPU analytically — cores, SIMD width,
// cache hierarchy, memory bandwidth — and exposes a PAPI-style counter set
// through the same Profile/Frame plumbing the GPU profiler uses, so the
// BlackForest pipeline runs unchanged on CPU data.
//
// Unlike gpusim, the CPU model is analytic rather than execution-driven:
// workloads report their operation and traffic totals and the machine model
// derives counters and time. That is sufficient for the extension's goal
// (BF is substrate-agnostic) and keeps the package small.
package cpusim

import (
	"fmt"
	"math"
	"sort"

	"blackforest/internal/profiler"
	"blackforest/internal/stats"
)

// CPU describes a multicore processor.
type CPU struct {
	Name         string
	Cores        int
	SIMDWidth    int // float32 lanes per vector unit
	ClockGHz     float64
	IPCPeak      float64 // per-core scalar instructions per cycle
	L1KB         int     // per-core L1D
	L2KB         int     // per-core L2
	LLCKB        int     // shared last-level cache
	LineBytes    int
	MemBWGBps    float64
	LLCLatency   int // cycles
	MemLatency   int // cycles
	IdleWatts    float64
	DynWattsPeak float64
}

// cpus is the built-in registry.
var cpus = map[string]*CPU{
	// A Sandy Bridge-class dual-socket node, the CPU counterpart of the
	// paper's GPU testbed era.
	"XeonE5": {
		Name: "XeonE5", Cores: 16, SIMDWidth: 8, ClockGHz: 2.6, IPCPeak: 2.2,
		L1KB: 32, L2KB: 256, LLCKB: 20 * 1024, LineBytes: 64,
		MemBWGBps: 51.2, LLCLatency: 40, MemLatency: 200,
		IdleWatts: 40, DynWattsPeak: 130,
	},
	// A smaller desktop part for CPU-vs-CPU scaling tests.
	"CoreI7": {
		Name: "CoreI7", Cores: 4, SIMDWidth: 8, ClockGHz: 3.4, IPCPeak: 2.4,
		L1KB: 32, L2KB: 256, LLCKB: 8 * 1024, LineBytes: 64,
		MemBWGBps: 25.6, LLCLatency: 36, MemLatency: 190,
		IdleWatts: 15, DynWattsPeak: 70,
	},
}

// LookupCPU returns the named CPU model.
func LookupCPU(name string) (*CPU, error) {
	c, ok := cpus[name]
	if !ok {
		return nil, fmt.Errorf("cpusim: unknown CPU %q (available: %v)", name, CPUNames())
	}
	cc := *c
	return &cc, nil
}

// CPUNames returns the registered CPU names, sorted.
func CPUNames() []string {
	names := make([]string, 0, len(cpus))
	for n := range cpus {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Totals is what a workload reports to the machine model: its operation
// and memory-traffic totals plus parallel structure.
type Totals struct {
	ScalarOps    float64 // non-vectorizable instructions
	VectorOps    float64 // float32 SIMD ops (elementwise count)
	Bytes        float64 // unique bytes touched
	ReuseBytes   float64 // bytes re-touched with cache-friendly reuse
	Branches     float64
	BranchMisses float64
	Threads      int // usable parallelism (≤ capped by cores)
}

// Workload is a CPU-profilable application.
type Workload interface {
	Name() string
	Characteristics() map[string]float64
	// Totals reports the run's aggregate work for the machine model.
	Totals(c *CPU) Totals
}

// Profiler profiles CPU workloads into the same Profile records the GPU
// profiler produces, so core.Tabulate and the whole pipeline apply.
type Profiler struct {
	cpu  *CPU
	seed uint64
	sig  float64
}

// NewProfiler builds a CPU profiler with the given noise (same semantics
// as the GPU profiler: 0 = default 1.5%, negative = none).
func NewProfiler(cpu *CPU, noiseSigma float64, seed uint64) *Profiler {
	if noiseSigma == 0 {
		noiseSigma = 0.015
	}
	if noiseSigma < 0 {
		noiseSigma = 0
	}
	return &Profiler{cpu: cpu, seed: seed ^ 0xc9a, sig: noiseSigma}
}

// Run profiles one workload run. Its noise is drawn from a seed derived
// from the workload's identity, as on the GPU profiler, so a profile does
// not depend on which runs came before it and concurrent Runs are safe.
func (p *Profiler) Run(w Workload) (*profiler.Profile, error) {
	c := p.cpu
	tt := w.Totals(c)
	if tt.Threads <= 0 {
		tt.Threads = 1
	}
	threads := math.Min(float64(tt.Threads), float64(c.Cores))

	// Instruction stream: vector ops retire SIMDWidth lanes per instr.
	instructions := tt.ScalarOps + tt.VectorOps/float64(c.SIMDWidth) + tt.Branches

	// Cache model: unique bytes beyond the LLC spill to memory; reuse
	// bytes hit the hierarchy.
	llcBytes := float64(c.LLCKB * 1024)
	memBytes := tt.Bytes
	llcHits := tt.ReuseBytes / float64(c.LineBytes)
	if tt.Bytes > llcBytes {
		// Streaming working set: reuse beyond LLC capacity also misses.
		spill := (tt.Bytes - llcBytes) / tt.Bytes
		memBytes += tt.ReuseBytes * spill
		llcHits *= 1 - spill
	}
	llcMisses := memBytes / float64(c.LineBytes)

	// Timing: compute-bound vs bandwidth-bound vs latency-bound.
	computeCycles := instructions / (threads * c.IPCPeak)
	memCycles := memBytes / (c.MemBWGBps / c.ClockGHz)
	latencyCycles := llcMisses * float64(c.MemLatency) / (threads * 10) // MLP ≈ 10
	cycles := math.Max(computeCycles, math.Max(memCycles, latencyCycles))
	cycles += 0.08 * (computeCycles + memCycles + latencyCycles - cycles)
	timeMS := cycles / (c.ClockGHz * 1e9) * 1e3

	utilization := computeCycles / cycles * threads / float64(c.Cores)
	power := c.IdleWatts + c.DynWattsPeak*math.Min(1, utilization+0.3*memCycles/cycles)

	measured := timeMS
	if p.sig > 0 {
		rng := stats.NewRNG(profiler.NoiseSeed(w, p.seed))
		measured *= math.Exp(p.sig * rng.NormFloat64())
		power *= math.Exp(p.sig * rng.NormFloat64())
	}

	ipc := instructions / cycles / threads
	metrics := map[string]float64{
		"instructions":      instructions,
		"cycles":            cycles,
		"ipc":               ipc,
		"simd_ops":          tt.VectorOps,
		"llc_references":    llcHits + llcMisses,
		"llc_misses":        llcMisses,
		"llc_miss_rate":     llcMisses / math.Max(1, llcHits+llcMisses),
		"branches":          tt.Branches,
		"branch_misses":     tt.BranchMisses,
		"mem_read_bytes":    memBytes,
		"mem_bandwidth_gbs": memBytes / (measured / 1e3) / 1e9,
		"threads":           threads,
		"cpu_utilization":   utilization,
	}

	return &profiler.Profile{
		Workload:        w.Name(),
		Device:          c.Name,
		Characteristics: w.Characteristics(),
		Metrics:         metrics,
		TimeMS:          measured,
		ModelTimeMS:     timeMS,
		PowerW:          power,
		EnergyMJ:        power * timeMS,
		Launches:        1,
		Bottlenecks:     map[string]int{bottleneckOf(computeCycles, memCycles, latencyCycles): 1},
	}, nil
}

func bottleneckOf(compute, mem, latency float64) string {
	switch {
	case compute >= mem && compute >= latency:
		return "compute"
	case mem >= latency:
		return "bandwidth"
	default:
		return "latency"
	}
}
