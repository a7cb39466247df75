package gpusim

import "fmt"

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
// stretch of code between barriers, each followed by a Sync. The contents
// of the block's __shared__ arrays belong to the kernel: it allocates them
// once, not per block, and clears at block start any array it reads
// before writing. Blocks run one at a time, so one set of arrays serves
// them all.
type KernelFunc func(b *Block)

// reset prepares the pooled block workspace for its next simulated block:
// identity and wiring are replaced. The coalescer and bank-detector
// scratch carries over: it is overwritten before every read, so reuse
// cannot change a single counter. The block holds no kernel data; a
// kernel's shared arrays are its own and it clears them itself.
func (b *Block) reset(cfg LaunchConfig, idxX, idxY int, counters *Counters, l1, l2 *cache) {
	b.cfg = cfg
	b.idxX, b.idxY = idxX, idxY
	b.counters = counters
	b.l1, b.l2 = l1, l2
	b.warp = Warp{blk: b}
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
