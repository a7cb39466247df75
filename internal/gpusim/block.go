package gpusim

import (
	"fmt"
	"sync/atomic"
)

// Slot is an interned handle for per-block kernel state (the functional
// contents of a __shared__ array). Kernels allocate slots once at package
// init with NewSlot and index the block's state table directly — no string
// hashing on the instruction hot path.
type Slot int

var slotCount atomic.Int64

// NewSlot reserves a new block-state slot. Call it from package-level var
// initialization, one per distinct shared array a kernel family uses.
func NewSlot() Slot { return Slot(slotCount.Add(1) - 1) }

// Block executes one thread block: it owns the block's counter accumulator
// and L1 view, and the kernel body drives its warps barrier phase by
// barrier phase. ForEachWarp runs one phase of every warp in index order
// on the calling goroutine and Sync ends the phase, which makes execution
// deterministic and lets instruction accounting go lock-free.
type Block struct {
	dev  *Device
	cfg  LaunchConfig
	idxX int
	idxY int

	counters *Counters
	l1       *cache
	l2       *cache

	// state holds kernel-managed per-block data (the functional contents
	// of shared memory), indexed by Slot. Warps of a block execute one at
	// a time, so no locking is needed.
	state []any

	// segScratch is reused by the coalescer to avoid per-instruction
	// allocation (a warp access touches at most 64 segments).
	segScratch [64]uint64
	// banks is the shared-memory conflict detector's working storage.
	banks bankScratch
	// warp is the one Warp value ForEachWarp hands to every warp body, so
	// running a warp allocates nothing. Its id is the warp running (or,
	// between phases, the one that ran last), which is what a panic
	// reports.
	warp Warp
}

// KernelFunc is the body of a kernel, invoked once per block. CUDA's
// __syncthreads rule (every thread of a block reaches the same barriers)
// lets it be written as a sequence of phases: one ForEachWarp call per
// stretch of code between barriers, each followed by a Sync.
type KernelFunc func(b *Block)

// reset prepares a pooled block workspace for its next simulated block.
// Identity and wiring are replaced; kernel-visible state is restored to
// exactly what a fresh Block would present — numeric scratch slices are
// zeroed in place (BlockState create functions build zeroed slices, so a
// cleared one is indistinguishable), anything else is dropped and rebuilt
// on first use. The coalescer and bank-detector scratch carries over: it
// is overwritten before every read, so reuse cannot change a single
// counter.
func (b *Block) reset(cfg LaunchConfig, idxX, idxY int, counters *Counters, l1, l2 *cache) {
	b.cfg = cfg
	b.idxX, b.idxY = idxX, idxY
	b.counters = counters
	b.l1, b.l2 = l1, l2
	b.warp = Warp{blk: b}
	for i, v := range b.state {
		switch t := v.(type) {
		case []float32:
			clear(t)
		case []int32:
			clear(t)
		case []uint32:
			clear(t)
		case []float64:
			clear(t)
		default:
			b.state[i] = nil
		}
	}
}

// run executes the kernel for the block. A kernel panic ends the block and
// comes back as an error naming the warp that was running (kernel bugs
// surface as errors, not crashes).
func (b *Block) run(kernel KernelFunc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gpusim: kernel panic in block (%d,%d) warp %d: %v", b.idxX, b.idxY, b.warp.id, r)
		}
	}()
	kernel(b)
	return nil
}

// ForEachWarp runs body for warps 0..n-1 of the block, in index order, on
// the calling goroutine: one barrier phase of the whole block.
func (b *Block) ForEachWarp(body func(w *Warp)) {
	for i := 0; i < b.cfg.WarpsPerBlock(); i++ {
		b.warp.id = i
		body(&b.warp)
	}
}

// Sync executes a block-wide barrier (__syncthreads()) between two phases.
// Every warp issues one barrier instruction over its valid lanes, and
// those lanes sum to the block's thread count.
func (b *Block) Sync() {
	c := b.counters
	n := uint64(b.cfg.WarpsPerBlock())
	c.InstExecuted += n
	c.InstIssued += n
	c.ThreadInstExecuted += uint64(b.cfg.ThreadsPerBlock())
	c.SyncCount += n
}

// BlockIdx returns the block's 2-D grid coordinates.
func (b *Block) BlockIdx() (x, y int) { return b.idxX, b.idxY }

// BlockDim returns the block's 2-D dimensions in threads.
func (b *Block) BlockDim() (x, y int) { return b.cfg.BlockDimX, b.cfg.BlockDimY }

// GridDim returns the grid dimensions in blocks.
func (b *Block) GridDim() (x, y int) { return b.cfg.GridDimX, b.cfg.GridDimY }

// BlockState returns the per-block state stored in slot, creating it with
// create on first use. Kernels use this for the functional contents of
// shared memory (e.g. the reduction scratchpad or matrix tiles), which all
// warps of a block share. Slots come from NewSlot at package init;
// indexing a slice beats hashing a string key on every lookup.
func (b *Block) BlockState(slot Slot, create func() any) any {
	if int(slot) >= len(b.state) {
		grown := make([]any, slotCount.Load())
		copy(grown, b.state)
		b.state = grown
	}
	v := b.state[slot]
	if v == nil {
		v = create()
		b.state[slot] = v
	}
	return v
}

// SharedF32 returns a per-block float32 scratchpad of at least n elements
// stored in slot — the functional view of a __shared__ float array. A
// pooled slice from an earlier block is reused (zeroed) when it is big
// enough and replaced when it is not.
func (b *Block) SharedF32(slot Slot, n int) []float32 {
	v := b.BlockState(slot, func() any { return make([]float32, n) }).([]float32)
	if len(v) < n {
		v = make([]float32, n)
		b.state[slot] = v
	}
	return v
}

// SharedI32 returns a per-block int32 scratchpad of at least n elements —
// the functional view of a __shared__ int array, with the same reuse rule
// as SharedF32.
func (b *Block) SharedI32(slot Slot, n int) []int32 {
	v := b.BlockState(slot, func() any { return make([]int32, n) }).([]int32)
	if len(v) < n {
		v = make([]int32, n)
		b.state[slot] = v
	}
	return v
}
