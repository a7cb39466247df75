package gpusim

import (
	"fmt"
	"math/bits"
)

// Mask is a 32-bit active-lane mask: bit i set means lane i executes the
// instruction. It is the explicit form of SIMT control-flow divergence.
type Mask uint32

// FullMask returns a mask with all WarpSize lanes active.
func FullMask() Mask { return Mask(0xffffffff) }

// Active reports whether lane is active in the mask.
func (m Mask) Active(lane int) bool { return m&(1<<uint(lane)) != 0 }

// Count returns the number of active lanes.
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// MaskWhere builds a mask from a per-lane predicate.
func MaskWhere(pred func(lane int) bool) Mask {
	var m Mask
	for lane := 0; lane < WarpSize; lane++ {
		if pred(lane) {
			m |= 1 << uint(lane)
		}
	}
	return m
}

// MaskFirstN returns a mask with the first n lanes active (n clamped to
// [0, WarpSize]).
func MaskFirstN(n int) Mask {
	if n <= 0 {
		return 0
	}
	if n >= WarpSize {
		return FullMask()
	}
	return Mask(1<<uint(n)) - 1
}

// Warp is the execution context Block.ForEachWarp hands to a warp body,
// with per-lane values held in [WarpSize]-arrays by the kernel itself. All
// methods account counters on the owning block; warps of a block run one
// at a time, so no synchronization is needed.
type Warp struct {
	blk *Block
	id  int // warp index within the block
}

// WarpID returns the warp's index within its block.
func (w *Warp) WarpID() int { return w.id }

// LinearTID returns lane's linear thread index within the block
// (threadIdx.y*blockDim.x + threadIdx.x in CUDA terms).
func (w *Warp) LinearTID(lane int) int { return w.id*WarpSize + lane }

// ValidMask returns the mask of lanes whose linear TID falls inside the
// block (the last warp of an odd-sized block is partially populated).
func (w *Warp) ValidMask() Mask {
	tpb := w.blk.cfg.ThreadsPerBlock()
	remaining := tpb - w.id*WarpSize
	return MaskFirstN(remaining)
}

// --- arithmetic instructions ---

// IntOps records n integer warp instructions executed under mask.
func (w *Warp) IntOps(mask Mask, n int) {
	c := w.blk.counters
	c.InstExecuted += uint64(n)
	c.InstIssued += uint64(n)
	c.ThreadInstExecuted += uint64(n * mask.Count())
	c.IntThreadOps += uint64(n * mask.Count())
}

// FloatOps records n floating-point warp instructions under mask
// (an FMA counts as one instruction).
func (w *Warp) FloatOps(mask Mask, n int) {
	c := w.blk.counters
	c.InstExecuted += uint64(n)
	c.InstIssued += uint64(n)
	c.ThreadInstExecuted += uint64(n * mask.Count())
	c.FloatThreadOps += uint64(n * mask.Count())
}

// SpecialOps records n special-function-unit instructions (rsqrt, sin, …).
func (w *Warp) SpecialOps(mask Mask, n int) {
	c := w.blk.counters
	c.InstExecuted += uint64(n)
	c.InstIssued += uint64(n)
	c.ThreadInstExecuted += uint64(n * mask.Count())
	c.SpecialThreadOps += uint64(n * mask.Count())
}

// Branch records a branch instruction under mask where the lanes in taken
// take it. A branch diverges when taken is a non-trivial subset of mask.
func (w *Warp) Branch(mask, taken Mask) {
	c := w.blk.counters
	c.InstExecuted++
	c.InstIssued++
	c.ThreadInstExecuted += uint64(mask.Count())
	c.Branch++
	t := taken & mask
	if t != 0 && t != mask {
		c.DivergentBranch++
	}
}

// --- memory instructions ---

// GlobalLoad records one warp global-load instruction: each active lane
// reads accessBytes at its byte address. The coalescer and cache hierarchy
// account the resulting transactions, hits, misses, and replays.
func (w *Warp) GlobalLoad(mask Mask, addrs *[WarpSize]uint64, accessBytes uint32) {
	if mask == 0 {
		return
	}
	b := w.blk
	c := b.counters
	active := mask.Count()
	c.InstExecuted++
	c.GldRequest++
	c.ThreadInstExecuted += uint64(active)
	c.LdstThreadOps += uint64(active)
	c.RequestedGldBytes += uint64(active) * uint64(accessBytes)

	if b.dev.GlobalLoadsUseL1 {
		// Fermi: 128-byte L1 lines; every miss fetches four 32-byte L2
		// segments; L2 misses go to DRAM.
		lines := coalesce(b.segScratch[:0], mask, addrs, accessBytes, 128)
		for _, line := range lines {
			if b.l1.access(line) {
				c.L1GlobalLoadHit++
				continue
			}
			c.L1GlobalLoadMiss++
			for seg := uint64(0); seg < 128; seg += 32 {
				c.L2ReadTransactions++
				if !b.l2.access(line + seg) {
					c.DRAMReadBytes += 32
				}
			}
		}
		replays := uint64(len(lines) - 1)
		c.GlobalReplay += replays
		c.InstIssued += 1 + replays
		return
	}

	// Kepler: global loads bypass L1; 32-byte L2 segments.
	segs := coalesce(b.segScratch[:0], mask, addrs, accessBytes, 32)
	for _, seg := range segs {
		c.L2ReadTransactions++
		if !b.l2.access(seg) {
			c.DRAMReadBytes += 32
		}
	}
	// Replays happen per extra 128-byte-equivalent group of segments.
	groups := (len(segs) + 3) / 4
	replays := uint64(0)
	if groups > 1 {
		replays = uint64(groups - 1)
	}
	c.GlobalReplay += replays
	c.InstIssued += 1 + replays
}

// GlobalStore records one warp global-store instruction. Stores write
// through L2 toward DRAM; transactions are counted per touched 128-byte
// span (the paper's global_store_transaction: 32–128 bytes each) and per
// 32-byte L2 segment.
func (w *Warp) GlobalStore(mask Mask, addrs *[WarpSize]uint64, accessBytes uint32) {
	if mask == 0 {
		return
	}
	b := w.blk
	c := b.counters
	active := mask.Count()
	c.InstExecuted++
	c.GstRequest++
	c.ThreadInstExecuted += uint64(active)
	c.LdstThreadOps += uint64(active)
	c.RequestedGstBytes += uint64(active) * uint64(accessBytes)

	segs := coalesce(b.segScratch[:0], mask, addrs, accessBytes, 32)
	nLines := spanCount(segs)
	c.GlobalStoreTransaction += uint64(nLines)
	for _, seg := range segs {
		// Write-allocate in L2; modeled as write-through for DRAM traffic.
		b.l2.access(seg)
		c.L2WriteTransactions++
		c.DRAMWriteBytes += 32
	}
	replays := uint64(nLines - 1)
	c.GlobalReplay += replays
	c.InstIssued += 1 + replays
}

// SharedLoad records one warp shared-memory load: each active lane reads a
// 4-byte word at its byte offset into the block's shared memory. Bank
// conflicts serialize the access into degree passes, each extra pass being
// a replay.
func (w *Warp) SharedLoad(mask Mask, offsets *[WarpSize]uint32) {
	w.chargeShared(mask, bankConflictDegree(&w.blk.banks, mask, offsets, w.blk.dev.SharedBanks), false)
}

// SharedStore records one warp shared-memory store (4-byte words), with
// the same bank-conflict serialization as SharedLoad.
func (w *Warp) SharedStore(mask Mask, offsets *[WarpSize]uint32) {
	w.chargeShared(mask, bankConflictDegree(&w.blk.banks, mask, offsets, w.blk.dev.SharedBanks), true)
}

// SharedAccess is a warp shared-memory access whose mask and offsets are
// known before the launch — they depend only on the lane, the warp and
// the loop step, never on the block. Its bank-conflict degree is a
// static property of that pattern, so NewSharedAccess computes it once
// and SharedLoadAt/SharedStoreAt charge exactly what SharedLoad and
// SharedStore would for the same mask and offsets. Accesses whose
// offsets depend on data or on the block keep the per-call form.
type SharedAccess struct {
	mask   Mask
	banks  int // the SharedBanks of the device the degree was computed for
	degree int
}

// NewSharedAccess precomputes the access of the active lanes in mask to
// the given byte offsets on dev's shared-memory banks.
func NewSharedAccess(dev *Device, mask Mask, offsets *[WarpSize]uint32) SharedAccess {
	var s bankScratch
	return SharedAccess{mask: mask, banks: dev.SharedBanks, degree: bankConflictDegree(&s, mask, offsets, dev.SharedBanks)}
}

// degreeOn returns a's conflict degree on dev. A degree computed for
// another bank count would be wrong there, so that panics — which
// Block.run turns into a launch error.
func (a SharedAccess) degreeOn(dev *Device) int {
	if a.banks != dev.SharedBanks {
		panic(fmt.Sprintf("gpusim: shared access built for %d banks charged on %s (%d banks)",
			a.banks, dev.Name, dev.SharedBanks))
	}
	return a.degree
}

// SharedLoadAt records the load a, exactly as SharedLoad would.
func (w *Warp) SharedLoadAt(a SharedAccess) { w.chargeShared(a.mask, a.degreeOn(w.blk.dev), false) }

// SharedStoreAt records the store a, exactly as SharedStore would.
func (w *Warp) SharedStoreAt(a SharedAccess) { w.chargeShared(a.mask, a.degreeOn(w.blk.dev), true) }

// chargeShared is the one accounting path of a warp shared-memory load or
// store that serializes into degree passes. An empty mask issues nothing.
func (w *Warp) chargeShared(mask Mask, degree int, store bool) {
	if mask == 0 {
		return
	}
	c := w.blk.counters
	c.InstExecuted++
	c.ThreadInstExecuted += uint64(mask.Count())
	c.LdstThreadOps += uint64(mask.Count())
	if store {
		c.SharedStore++
		c.SharedStoreReplay += uint64(degree - 1)
	} else {
		c.SharedLoad++
		c.SharedLoadReplay += uint64(degree - 1)
	}
	c.InstIssued += uint64(degree)
}

// AtomicGlobalAdd records one warp global atomic instruction (atomicAdd
// on device memory). Lanes targeting the same address serialize: the
// instruction replays once per extra same-address lane, and each unique
// address costs an L2 read-modify-write.
func (w *Warp) AtomicGlobalAdd(mask Mask, addrs *[WarpSize]uint64) {
	if mask == 0 {
		return
	}
	b := w.blk
	c := b.counters
	c.InstExecuted++
	c.GlobalAtomicOps++
	c.ThreadInstExecuted += uint64(mask.Count())
	c.LdstThreadOps += uint64(mask.Count())

	degree, unique := addressContention(mask, addrs)
	c.AtomicReplays += uint64(degree - 1)
	c.InstIssued += uint64(degree)
	c.GlobalAtomicSerial += uint64(mask.Count() - unique)
	// Each unique address is an L2 read-modify-write (32 B each way).
	for i := 0; i < unique; i++ {
		c.L2ReadTransactions++
		c.L2WriteTransactions++
	}
	// Atomics resolve at L2; a fraction of lines miss to DRAM.
	for rem := uint32(mask); rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		if !b.l2.access(addrs[lane] &^ 31) {
			c.DRAMReadBytes += 32
			c.DRAMWriteBytes += 32
		}
	}
}

// AtomicSharedAdd records one warp shared-memory atomic. Same-address
// lanes serialize (no broadcast for read-modify-write), and bank conflicts
// serialize further; the effective degree is the larger of the two.
func (w *Warp) AtomicSharedAdd(mask Mask, offsets *[WarpSize]uint32) {
	if mask == 0 {
		return
	}
	b := w.blk
	c := b.counters
	c.InstExecuted++
	c.SharedAtomicOps++
	c.ThreadInstExecuted += uint64(mask.Count())
	c.LdstThreadOps += uint64(mask.Count())

	var addrs [WarpSize]uint64
	for l := 0; l < WarpSize; l++ {
		addrs[l] = uint64(offsets[l])
	}
	sameAddr, _ := addressContention(mask, &addrs)
	banks := bankConflictDegree(&b.banks, mask, offsets, b.dev.SharedBanks)
	degree := sameAddr
	if banks > degree {
		degree = banks
	}
	c.AtomicReplays += uint64(degree - 1)
	c.InstIssued += uint64(degree)
}

// addressContention returns the maximum number of active lanes hitting any
// single address (the serialization degree for read-modify-write) and the
// number of distinct addresses.
func addressContention(mask Mask, addrs *[WarpSize]uint64) (degree, unique int) {
	type entry struct {
		addr  uint64
		count int
	}
	var backing [WarpSize]entry
	seen := backing[:0]
	degree = 1
	for rem := uint32(mask); rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		found := false
		for i := range seen {
			if seen[i].addr == addrs[lane] {
				seen[i].count++
				if seen[i].count > degree {
					degree = seen[i].count
				}
				found = true
				break
			}
		}
		if !found {
			seen = append(seen, entry{addrs[lane], 1})
		}
	}
	return degree, len(seen)
}
