package gpusim

// Counters accumulates the raw hardware events the machine model observes
// during kernel execution. They are the inputs from which the profiler
// derives the nvprof-style metrics of the paper's Table 1.
//
// All fields are totals over the simulated (possibly sampled) blocks;
// the launcher scales them to the full grid before deriving metrics.
type Counters struct {
	// Warp-level instruction counts. InstExecuted excludes replays;
	// InstIssued includes them (the paper's serialization signal:
	// inst_issued significantly larger than inst_executed).
	InstExecuted uint64
	InstIssued   uint64

	// ThreadInstExecuted counts thread-level instructions (active lanes
	// summed per warp instruction); with InstExecuted it yields
	// warp_execution_efficiency.
	ThreadInstExecuted uint64

	// Global memory requests: one per warp load/store instruction.
	GldRequest uint64
	GstRequest uint64

	// Requested bytes (what the kernel asked for, before coalescing).
	RequestedGldBytes uint64
	RequestedGstBytes uint64

	// Global load transactions at L1 granularity (Fermi 128 B lines) and
	// their cache outcomes. On Kepler global loads bypass L1 and these
	// count 32 B L2 transactions instead (hits stay zero).
	L1GlobalLoadHit  uint64
	L1GlobalLoadMiss uint64

	// GlobalStoreTransaction counts store transactions (up to 128 B each).
	GlobalStoreTransaction uint64

	// L2 transactions are 32-byte segments.
	L2ReadTransactions  uint64
	L2WriteTransactions uint64

	// DRAM traffic in bytes (L2 misses, both directions).
	DRAMReadBytes  uint64
	DRAMWriteBytes uint64

	// Shared memory: instructions (per warp) and conflict replays.
	SharedLoad        uint64
	SharedStore       uint64
	SharedLoadReplay  uint64
	SharedStoreReplay uint64

	// Memory-replay events from uncoalesced global accesses (each extra
	// transaction beyond the first replays the instruction on Fermi).
	GlobalReplay uint64

	// Control flow.
	Branch          uint64
	DivergentBranch uint64

	// Functional-unit thread-level op counts for utilization metrics.
	IntThreadOps   uint64
	FloatThreadOps uint64
	LdstThreadOps  uint64

	// Atomic operations: per-warp instruction counts and the extra
	// serialization passes caused by same-address contention.
	// GlobalAtomicSerial counts thread-level global updates beyond the
	// first per address per instruction — work the L2 must apply one at
	// a time, device-wide.
	GlobalAtomicOps    uint64
	SharedAtomicOps    uint64
	AtomicReplays      uint64
	GlobalAtomicSerial uint64

	// Barriers executed (per warp).
	SyncCount uint64
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.InstExecuted += other.InstExecuted
	c.InstIssued += other.InstIssued
	c.ThreadInstExecuted += other.ThreadInstExecuted
	c.GldRequest += other.GldRequest
	c.GstRequest += other.GstRequest
	c.RequestedGldBytes += other.RequestedGldBytes
	c.RequestedGstBytes += other.RequestedGstBytes
	c.L1GlobalLoadHit += other.L1GlobalLoadHit
	c.L1GlobalLoadMiss += other.L1GlobalLoadMiss
	c.GlobalStoreTransaction += other.GlobalStoreTransaction
	c.L2ReadTransactions += other.L2ReadTransactions
	c.L2WriteTransactions += other.L2WriteTransactions
	c.DRAMReadBytes += other.DRAMReadBytes
	c.DRAMWriteBytes += other.DRAMWriteBytes
	c.SharedLoad += other.SharedLoad
	c.SharedStore += other.SharedStore
	c.SharedLoadReplay += other.SharedLoadReplay
	c.SharedStoreReplay += other.SharedStoreReplay
	c.GlobalReplay += other.GlobalReplay
	c.GlobalAtomicOps += other.GlobalAtomicOps
	c.SharedAtomicOps += other.SharedAtomicOps
	c.AtomicReplays += other.AtomicReplays
	c.GlobalAtomicSerial += other.GlobalAtomicSerial
	c.Branch += other.Branch
	c.DivergentBranch += other.DivergentBranch
	c.IntThreadOps += other.IntThreadOps
	c.FloatThreadOps += other.FloatThreadOps
	c.LdstThreadOps += other.LdstThreadOps
	c.SyncCount += other.SyncCount
}

// Scale multiplies every event count by f (used to extrapolate sampled
// blocks to the full grid). Counts are rounded to the nearest integer.
func (c *Counters) Scale(f float64) {
	s := func(v uint64) uint64 { return uint64(float64(v)*f + 0.5) }
	c.InstExecuted = s(c.InstExecuted)
	c.InstIssued = s(c.InstIssued)
	c.ThreadInstExecuted = s(c.ThreadInstExecuted)
	c.GldRequest = s(c.GldRequest)
	c.GstRequest = s(c.GstRequest)
	c.RequestedGldBytes = s(c.RequestedGldBytes)
	c.RequestedGstBytes = s(c.RequestedGstBytes)
	c.L1GlobalLoadHit = s(c.L1GlobalLoadHit)
	c.L1GlobalLoadMiss = s(c.L1GlobalLoadMiss)
	c.GlobalStoreTransaction = s(c.GlobalStoreTransaction)
	c.L2ReadTransactions = s(c.L2ReadTransactions)
	c.L2WriteTransactions = s(c.L2WriteTransactions)
	c.DRAMReadBytes = s(c.DRAMReadBytes)
	c.DRAMWriteBytes = s(c.DRAMWriteBytes)
	c.SharedLoad = s(c.SharedLoad)
	c.SharedStore = s(c.SharedStore)
	c.SharedLoadReplay = s(c.SharedLoadReplay)
	c.SharedStoreReplay = s(c.SharedStoreReplay)
	c.GlobalReplay = s(c.GlobalReplay)
	c.GlobalAtomicOps = s(c.GlobalAtomicOps)
	c.SharedAtomicOps = s(c.SharedAtomicOps)
	c.AtomicReplays = s(c.AtomicReplays)
	c.GlobalAtomicSerial = s(c.GlobalAtomicSerial)
	c.Branch = s(c.Branch)
	c.DivergentBranch = s(c.DivergentBranch)
	c.IntThreadOps = s(c.IntThreadOps)
	c.FloatThreadOps = s(c.FloatThreadOps)
	c.LdstThreadOps = s(c.LdstThreadOps)
	c.SyncCount = s(c.SyncCount)
}

// TotalReplays returns all instruction replays (shared-memory conflicts
// plus coalescing replays), the events behind inst_replay_overhead.
func (c *Counters) TotalReplays() uint64 {
	return c.SharedLoadReplay + c.SharedStoreReplay + c.GlobalReplay + c.AtomicReplays
}
