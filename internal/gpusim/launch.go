package gpusim

import (
	"fmt"
	"math"
)

// ModelVersion names the simulator's modeling semantics. It salts every
// content-addressed run-cache key, so any change to how counters are
// accounted, time is modeled, or energy is derived MUST bump it —
// otherwise profiles cached by an older binary would be served as if the
// new model had produced them.
const ModelVersion = "gpusim-v1"

// LaunchOptions tunes a simulated kernel launch.
type LaunchOptions struct {
	// MaxSimBlocks caps the number of thread blocks executed in detail;
	// counters are scaled to the full grid afterwards (the standard
	// sampling-simulator compromise). 0 simulates every block, which is
	// required when the caller needs complete functional results.
	MaxSimBlocks int
}

// LaunchResult reports one simulated kernel launch.
type LaunchResult struct {
	Device    *Device
	Config    LaunchConfig
	Occupancy Occupancy
	// AchievedOccupancy estimates nvprof's achieved_occupancy.
	AchievedOccupancy float64
	// Counters are scaled to the full grid.
	Counters Counters
	// Cycles is the modeled execution duration in core cycles.
	Cycles float64
	// TimeMS is the modeled kernel time in milliseconds, including the
	// fixed launch overhead.
	TimeMS float64
	// Bottleneck names the term that bounded the kernel time:
	// "issue", "alu", "dram", "l2", or "latency".
	Bottleneck string
	// Breakdown attributes Cycles to stall/work categories; its Total()
	// equals Cycles exactly. It is a pure view over the timing model:
	// computing it never changes Cycles or Bottleneck.
	Breakdown BottleneckBreakdown
	// EnergyMJ is the modeled energy of the launch in millijoules
	// (idle draw over the duration plus per-event dynamic energy).
	EnergyMJ float64
	// AvgPowerW is the modeled average power draw over the launch.
	AvgPowerW       float64
	SimulatedBlocks int
	TotalBlocks     int
}

// Simulator executes kernels on a device model. The caches persist across
// launches (as on real hardware); call ResetCaches between unrelated
// experiments for reproducibility. After ResetCaches a simulator that has
// served other runs computes exactly what a new one does, so callers pool
// simulators per device rather than building one per run.
type Simulator struct {
	dev *Device
	l2  *cache
	l1s []*cache // one L1 per SM slot, reused by blocks assigned to it
	// blk is the reusable block workspace: one Block whose coalescer and
	// bank scratch survives across blocks and launches instead of being
	// reallocated per block. reset restores everything a kernel can
	// observe, so pooling is invisible to counters. A Simulator is used
	// from one goroutine at a time.
	blk Block
	// counters accumulates the current launch's events, and blocks holds
	// the indices of the blocks it simulates; both are reused across
	// launches.
	counters Counters
	blocks   []int
}

// NewSimulator builds a simulator for the device.
func NewSimulator(dev *Device) *Simulator {
	s := &Simulator{
		dev: dev,
		l2:  newCache(dev.L2SizeKB*1024, 32, 16),
		l1s: make([]*cache, dev.SMs),
	}
	for i := range s.l1s {
		s.l1s[i] = newCache(dev.L1SizeKB*1024, 128, 4)
	}
	return s
}

// Device returns the simulated device.
func (s *Simulator) Device() *Device { return s.dev }

// ResetCaches clears all cache state.
func (s *Simulator) ResetCaches() {
	s.l2.reset()
	for _, l1 := range s.l1s {
		l1.reset()
	}
}

// Launch runs the kernel over the grid described by cfg and returns the
// modeled counters and time. The result is a value, so a launch allocates
// nothing once the simulator has served one of its size.
func (s *Simulator) Launch(cfg LaunchConfig, kernel KernelFunc, opts LaunchOptions) (LaunchResult, error) {
	occ, err := ComputeOccupancy(s.dev, cfg)
	if err != nil {
		return LaunchResult{}, err
	}
	total := cfg.Blocks()
	s.blocks = pickBlocks(s.blocks[:0], total, opts.MaxSimBlocks)
	simBlocks := s.blocks

	s.counters = Counters{}
	s.blk.dev = s.dev
	for _, bi := range simBlocks {
		s.blk.reset(cfg, bi%cfg.GridDimX, bi/cfg.GridDimX, &s.counters, s.l1s[bi%len(s.l1s)], s.l2)
		if err := s.blk.run(kernel); err != nil {
			return LaunchResult{}, err
		}
	}
	if len(simBlocks) < total {
		s.counters.Scale(float64(total) / float64(len(simBlocks)))
	}

	res := LaunchResult{
		Device:            s.dev,
		Config:            cfg,
		Occupancy:         occ,
		AchievedOccupancy: AchievedOccupancy(s.dev, cfg, occ),
		Counters:          s.counters,
		SimulatedBlocks:   len(simBlocks),
		TotalBlocks:       total,
	}
	s.model(&res)
	return res, nil
}

// pickBlocks appends to buf the block indices to simulate and returns it:
// all of them, or an even sample across the grid so boundary blocks and
// interior blocks are both represented.
func pickBlocks(buf []int, total, maxSim int) []int {
	if maxSim <= 0 || maxSim >= total {
		for i := 0; i < total; i++ {
			buf = append(buf, i)
		}
		return buf
	}
	stride := float64(total) / float64(maxSim)
	for i := 0; i < maxSim; i++ {
		buf = append(buf, int(float64(i)*stride))
	}
	return buf
}

// model fills in the bottleneck-based timing estimate. The kernel time is
// the maximum of four device-wide terms, mirroring how the paper reasons
// about performance limiters (§3.1):
//
//   - issue:   warp instructions issued (incl. replays) / SM issue rate —
//     replays from bank conflicts and uncoalesced accesses inflate
//     exactly this term;
//   - alu:     thread-level arithmetic ops / total core throughput;
//   - dram:    DRAM bytes moved / memory bandwidth;
//   - latency: memory round-trips that resident warps cannot hide when
//     occupancy is low.
func (s *Simulator) model(res *LaunchResult) {
	d := s.dev
	c := &res.Counters
	occ := res.Occupancy

	effSMs := float64(d.SMs) * math.Max(occ.TailUtilization, 1e-3)
	if occ.ActiveSMs < d.SMs {
		effSMs = float64(occ.ActiveSMs)
	}

	issueCycles := float64(c.InstIssued) / (effSMs * d.PeakWarpIssuePerCycle())

	aluOps := float64(c.IntThreadOps + c.FloatThreadOps)
	aluCycles := aluOps / (effSMs * float64(d.CoresPerSM))

	dramBytes := float64(c.DRAMReadBytes + c.DRAMWriteBytes)
	dramCycles := dramBytes / d.BytesPerCycle()

	l2Bytes := 32 * float64(c.L2ReadTransactions+c.L2WriteTransactions)
	l2Cycles := l2Bytes / (2 * d.BytesPerCycle()) // L2 ≈ 2× DRAM bandwidth

	// Latency term: each warp's chain of memory requests costs a
	// round-trip; resident warps (and per-warp memory-level parallelism)
	// overlap them.
	totalWarps := float64(res.TotalBlocks * res.Config.WarpsPerBlock())
	latencyCycles := 0.0
	if totalWarps > 0 {
		memReqs := float64(c.GldRequest + c.GstRequest)
		reqsPerWarp := memReqs / totalWarps
		avgLat := s.averageLatency(c)
		const mlp = 4 // outstanding requests a warp sustains
		overlap := math.Max(1, float64(occ.WarpsPerSM)) * mlp
		warpsPerSM := totalWarps / effSMs
		latencyCycles = warpsPerSM * reqsPerWarp * avgLat / overlap
	}

	// Global atomics to the same address serialize at the L2: the bank
	// applies one read-modify-write at a time, device-wide (~4 cycles
	// each) — the cost privatized histograms avoid.
	atomCycles := 4 * float64(c.GlobalAtomicSerial)

	res.Cycles, res.Bottleneck = maxTerm(&[len(termNames)]float64{
		aluCycles, atomCycles, dramCycles, issueCycles, l2Cycles, latencyCycles,
	})
	// Pipeline drain/ramp smoothing: secondary terms are not perfectly
	// hidden behind the bottleneck.
	sum := issueCycles + aluCycles + dramCycles + l2Cycles + latencyCycles + atomCycles
	res.Cycles += 0.08 * (sum - res.Cycles)

	res.Breakdown = computeBreakdown(c, res.Cycles, effSMs*d.PeakWarpIssuePerCycle(),
		issueCycles, aluCycles, dramCycles, l2Cycles, latencyCycles, atomCycles)

	res.TimeMS = res.Cycles/(d.ClockGHz*1e9)*1e3 + d.LaunchOverheadUS/1e3

	// Energy: baseline draw for the duration plus per-event dynamic
	// energy, capped so average power stays below the board TDP.
	dynNJ := d.EnergyScale * (energyDRAMPerByteNJ*dramBytes +
		energyL2Per32BNJ*float64(c.L2ReadTransactions+c.L2WriteTransactions) +
		energyL1Per128BNJ*float64(c.L1GlobalLoadHit+c.L1GlobalLoadMiss) +
		energyALUPerOpNJ*aluOps +
		energySharedPerOpNJ*float64(c.LdstThreadOps) +
		energyIssuePerWarpNJ*float64(c.InstIssued))
	timeSec := res.TimeMS / 1e3
	energyJ := d.IdleWatts*timeSec + dynNJ*1e-9
	if maxJ := d.TDPWatts * timeSec; energyJ > maxJ {
		energyJ = maxJ
	}
	res.EnergyMJ = energyJ * 1e3
	if timeSec > 0 {
		res.AvgPowerW = energyJ / timeSec
	}
}

// averageLatency returns the mean global-memory round-trip in cycles,
// weighted by where loads were served.
func (s *Simulator) averageLatency(c *Counters) float64 {
	d := s.dev
	hits := float64(c.L1GlobalLoadHit)
	l2Reads := float64(c.L2ReadTransactions)
	dramReads := float64(c.DRAMReadBytes) / 32
	l2Hits := l2Reads - dramReads
	if l2Hits < 0 {
		l2Hits = 0
	}
	total := hits + l2Hits + dramReads
	if total == 0 {
		return float64(d.L2LatencyCycles)
	}
	return (hits*float64(d.L1LatencyCycles) +
		l2Hits*float64(d.L2LatencyCycles) +
		dramReads*float64(d.DRAMLatencyCycles)) / total
}

// termNames names the timing model's terms in sorted order.
var termNames = [...]string{"alu", "atomics", "dram", "issue", "l2", "latency"}

// maxTerm returns the largest of the terms, given in termNames order, and
// its name; ties break by name (the first in that order wins) for
// determinism.
func maxTerm(terms *[len(termNames)]float64) (float64, string) {
	best := math.Inf(-1)
	name := ""
	for i, v := range terms {
		if v > best {
			best, name = v, termNames[i]
		}
	}
	return best, name
}

// String summarizes a launch result.
func (r *LaunchResult) String() string {
	return fmt.Sprintf("%s grid=%dx%d block=%dx%d: %.4f ms (%s-bound, occ=%.2f, %d/%d blocks simulated)",
		r.Device.Name, r.Config.GridDimX, r.Config.GridDimY,
		r.Config.BlockDimX, r.Config.BlockDimY,
		r.TimeMS, r.Bottleneck, r.AchievedOccupancy,
		r.SimulatedBlocks, r.TotalBlocks)
}
