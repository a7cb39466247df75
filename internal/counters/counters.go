// Package counters defines the performance-counter vocabulary BlackForest
// models over: the nvprof event and metric names of the paper's Table 1
// (and the fuller tool-guide list it references), their per-architecture
// availability, and the derivation of metric values from the simulator's
// raw event counts.
//
// Architecture dependence matters for the paper's hardware-scaling study
// (§6.2/§7): Fermi exposes l1_shared_bank_conflict, Kepler instead exposes
// shared_load_replay and shared_store_replay, and Kepler's global loads
// bypassing L1 leaves the l1_global_load_* counters meaningless there.
package counters

import "blackforest/internal/gpusim"

// Meta describes one counter or metric.
type Meta struct {
	Name        string
	Description string
	// OnFermi / OnKepler state availability per architecture.
	OnFermi  bool
	OnKepler bool
	// Derived is true for metrics computed from events and time (nvprof
	// "metrics"); false for raw event counts (nvprof "events").
	Derived bool
}

// registry lists every counter BlackForest collects. Descriptions follow
// the paper's Table 1 and the CUDA profiler users guide.
var registry = []Meta{
	{"gld_request", "number of executed global load instructions, increments per warp on a multiprocessor", true, true, false},
	{"gst_request", "number of executed global store instructions, increments per warp on a multiprocessor", true, true, false},
	{"shared_load", "number of executed shared load instructions, increments per warp on a multiprocessor", true, true, false},
	{"shared_store", "number of executed shared store instructions, increments per warp on a multiprocessor", true, true, false},
	{"l1_global_load_hit", "number of cache lines that hit in L1 for global memory load accesses", true, false, false},
	{"l1_global_load_miss", "number of cache lines that miss in L1 for global memory load accesses", true, false, false},
	{"l1_shared_bank_conflict", "number of shared memory bank conflicts", true, false, false},
	{"shared_load_replay", "replays caused by shared load bank conflict or lack of data", false, true, false},
	{"shared_store_replay", "replays caused by shared store bank conflict", false, true, false},
	{"global_store_transaction", "number of global store transactions (each 32, 64, 96 or 128 bytes)", true, true, false},
	{"l2_read_transactions", "memory read transactions seen at L2 cache", true, true, false},
	{"l2_write_transactions", "memory write transactions seen at L2 cache", true, true, false},
	{"inst_executed", "number of instructions executed, does not include replays", true, true, false},
	{"inst_issued", "number of instructions issued, including replays", true, true, false},
	{"branch", "number of branch instructions executed per warp", true, true, false},
	{"divergent_branch", "number of divergent branches within a warp", true, true, false},

	{"ipc", "number of instructions executed per cycle", true, true, true},
	{"issue_slot_utilization", "percentage of issue slots that issued at least one instruction, averaged across all cycles", true, true, true},
	{"achieved_occupancy", "ratio of average active warps per active cycle to the maximum number of warps per SM", true, true, true},
	{"inst_replay_overhead", "average number of replays for each instruction executed", true, true, true},
	{"shared_replay_overhead", "average number of replays due to shared memory conflicts for each instruction executed", true, true, true},
	{"warp_execution_efficiency", "ratio of average active threads per warp to the maximum number of threads per warp", true, true, true},
	{"gld_requested_throughput", "requested global memory load throughput (GB/s)", true, true, true},
	{"gst_requested_throughput", "requested global memory store throughput (GB/s)", true, true, true},
	{"gld_throughput", "global memory load throughput (GB/s)", true, true, true},
	{"gst_throughput", "global memory store throughput (GB/s)", true, true, true},
	{"gld_efficiency", "ratio of requested to actual global load throughput (percent)", true, true, true},
	{"gst_efficiency", "ratio of requested to actual global store throughput (percent)", true, true, true},
	{"l2_read_throughput", "memory read throughput at L2 cache (GB/s)", true, true, true},
	{"l2_write_throughput", "memory write throughput at L2 cache (GB/s)", true, true, true},
	{"dram_read_throughput", "device memory read throughput (GB/s)", true, true, true},
	{"dram_write_throughput", "device memory write throughput (GB/s)", true, true, true},
	{"ldst_fu_utilization", "utilization level of load/store function units (percent of peak)", true, true, true},
	{"sm_efficiency", "percentage of time at least one warp is active on an SM", true, true, true},
	{"atom_count", "number of global atomic instructions executed per warp", true, true, false},
	{"shared_atom_count", "number of shared-memory atomic instructions executed per warp", true, true, false},
	{"atomic_replay_overhead", "average replays from atomic same-address contention per instruction executed", true, true, true},
}

// All returns metadata for every known counter, in registry order.
func All() []Meta {
	out := make([]Meta, len(registry))
	copy(out, registry)
	return out
}

// availableOn reports whether the counter exists on the architecture.
func (m Meta) availableOn(arch gpusim.Arch) bool {
	switch arch {
	case gpusim.Fermi:
		return m.OnFermi
	case gpusim.Kepler:
		return m.OnKepler
	default:
		return false
	}
}

// Sample holds the aggregate measurements of one profiled workload run
// (all kernel launches summed) from which metrics are derived.
type Sample struct {
	Raw               gpusim.Counters
	Cycles            float64 // total modeled core cycles
	TimeMS            float64 // total modeled wall time
	AchievedOccupancy float64 // cycle-weighted across launches
	SMEfficiency      float64 // cycle-weighted tail utilization
}

// Derive computes every counter available on the device's architecture.
func Derive(dev *gpusim.Device, s Sample) map[string]float64 {
	c := &s.Raw
	out := make(map[string]float64, len(registry))
	timeSec := s.TimeMS / 1e3
	if timeSec <= 0 {
		timeSec = 1e-12
	}
	cycles := s.Cycles
	if cycles <= 0 {
		cycles = 1
	}
	gbps := func(bytes float64) float64 { return bytes / timeSec / 1e9 }

	// Raw events.
	out["gld_request"] = float64(c.GldRequest)
	out["gst_request"] = float64(c.GstRequest)
	out["shared_load"] = float64(c.SharedLoad)
	out["shared_store"] = float64(c.SharedStore)
	out["global_store_transaction"] = float64(c.GlobalStoreTransaction)
	out["l2_read_transactions"] = float64(c.L2ReadTransactions)
	out["l2_write_transactions"] = float64(c.L2WriteTransactions)
	out["inst_executed"] = float64(c.InstExecuted)
	out["inst_issued"] = float64(c.InstIssued)
	out["branch"] = float64(c.Branch)
	out["divergent_branch"] = float64(c.DivergentBranch)
	out["atom_count"] = float64(c.GlobalAtomicOps)
	out["shared_atom_count"] = float64(c.SharedAtomicOps)

	if dev.Arch == gpusim.Fermi {
		out["l1_global_load_hit"] = float64(c.L1GlobalLoadHit)
		out["l1_global_load_miss"] = float64(c.L1GlobalLoadMiss)
		out["l1_shared_bank_conflict"] = float64(c.SharedLoadReplay + c.SharedStoreReplay)
	} else {
		out["shared_load_replay"] = float64(c.SharedLoadReplay)
		out["shared_store_replay"] = float64(c.SharedStoreReplay)
	}

	// Derived metrics.
	instExec := float64(c.InstExecuted)
	if instExec < 1 {
		instExec = 1
	}
	out["ipc"] = float64(c.InstExecuted) / cycles / float64(dev.SMs)
	out["issue_slot_utilization"] = 100 * float64(c.InstIssued) / (cycles * float64(dev.SMs) * dev.PeakWarpIssuePerCycle())
	out["achieved_occupancy"] = s.AchievedOccupancy
	out["inst_replay_overhead"] = float64(c.TotalReplays()) / instExec
	out["shared_replay_overhead"] = float64(c.SharedLoadReplay+c.SharedStoreReplay) / instExec
	out["atomic_replay_overhead"] = float64(c.AtomicReplays) / instExec
	out["warp_execution_efficiency"] = 100 * float64(c.ThreadInstExecuted) / (instExec * gpusim.WarpSize)

	out["gld_requested_throughput"] = gbps(float64(c.RequestedGldBytes))
	out["gst_requested_throughput"] = gbps(float64(c.RequestedGstBytes))

	var loadBytes float64
	if dev.GlobalLoadsUseL1 {
		loadBytes = 128 * float64(c.L1GlobalLoadHit+c.L1GlobalLoadMiss)
	} else {
		loadBytes = 32 * float64(c.L2ReadTransactions)
	}
	storeBytes := 32 * float64(c.L2WriteTransactions)
	out["gld_throughput"] = gbps(loadBytes)
	out["gst_throughput"] = gbps(storeBytes)
	out["gld_efficiency"] = pct(float64(c.RequestedGldBytes), loadBytes)
	out["gst_efficiency"] = pct(float64(c.RequestedGstBytes), storeBytes)

	out["l2_read_throughput"] = gbps(32 * float64(c.L2ReadTransactions))
	out["l2_write_throughput"] = gbps(32 * float64(c.L2WriteTransactions))
	out["dram_read_throughput"] = gbps(float64(c.DRAMReadBytes))
	out["dram_write_throughput"] = gbps(float64(c.DRAMWriteBytes))

	ldstPeak := cycles * float64(dev.SMs*dev.LdStUnitsPerSM)
	out["ldst_fu_utilization"] = 100 * float64(c.LdstThreadOps) / ldstPeak
	out["sm_efficiency"] = 100 * s.SMEfficiency

	// Drop metrics not exposed on this architecture.
	for _, m := range registry {
		if !m.availableOn(dev.Arch) {
			delete(out, m.Name)
		}
	}
	return out
}

// pct returns 100·a/b, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}
