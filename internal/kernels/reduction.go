package kernels

import (
	"fmt"

	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
)

// Reduction is the CUDA SDK parallel-reduction benchmark: sum-reduce an
// array of float32 with one of seven kernel variants, each demonstrating an
// optimization step. Large arrays need multiple kernel launches as
// synchronization points; Plan generates the full recursive launch
// sequence, exactly like the SDK driver.
//
// Variants (as in the SDK whitepaper and §5 of the paper):
//
//	0 — interleaved addressing with modulo test (divergent branches)
//	1 — interleaved addressing with strided indexing (bank conflicts)
//	2 — sequential addressing (idle threads)
//	3 — first add during global load
//	4 — unroll last warp
//	5 — completely unrolled loop
//	6 — multiple elements per thread (grid-stride loop) + full unrolling
type Reduction struct {
	// Variant selects the kernel, 0–6.
	Variant int
	// N is the array length.
	N int
	// BlockSize is threads per block; a power of two in [64, 1024].
	BlockSize int
	// MaxBlocks caps the grid of variant 6 (SDK default 64).
	MaxBlocks int
	// Seed generates the input data.
	Seed uint64

	// ping and pong receive the partial sums of alternate launches.
	ping, pong *paged[float32]
	// Result holds the reduced value after a fully-simulated run.
	Result float32
}

// Name implements profiler.Workload.
func (r *Reduction) Name() string { return fmt.Sprintf("reduce%d", r.Variant) }

// Characteristics implements profiler.Workload: the problem parameters the
// paper injects as predictors alongside the counters. A non-default grid
// cap (the optimizer's max_blocks transformation) joins the identity so
// transformed runs never share a noise seed or cache key with the
// baseline; at the default it is omitted, keeping every existing run's
// identity — and therefore every existing profile — bit-identical.
func (r *Reduction) Characteristics() map[string]float64 {
	c := map[string]float64{
		"size":       float64(r.N),
		"block_size": float64(r.BlockSize),
	}
	if r.MaxBlocks != 0 && r.MaxBlocks != defaultReduceMaxBlocks {
		c["max_blocks"] = float64(r.MaxBlocks)
	}
	return c
}

// defaultReduceMaxBlocks is the SDK driver's grid cap for variant 6.
const defaultReduceMaxBlocks = 64

// Params implements the optimizer's Tunable contract: the launch-config
// parameters a search may transform, at their effective values.
func (r *Reduction) Params() map[string]int {
	bs := r.BlockSize
	if bs == 0 {
		bs = 256
	}
	p := map[string]int{"block_size": bs}
	if r.Variant == 6 {
		mb := r.MaxBlocks
		if mb == 0 {
			mb = defaultReduceMaxBlocks
		}
		p["max_blocks"] = mb
	}
	return p
}

// ParamDomain implements the optimizer's Tunable contract.
func (r *Reduction) ParamDomain(name string) []int {
	switch name {
	case "block_size":
		return []int{64, 128, 256, 512, 1024}
	case "max_blocks":
		if r.Variant == 6 {
			return []int{32, 64, 128, 256}
		}
	}
	return nil
}

// WithParam implements the optimizer's Tunable contract: a fresh,
// unplanned copy of the workload with one parameter changed.
func (r *Reduction) WithParam(name string, value int) (profiler.Workload, error) {
	c := &Reduction{Variant: r.Variant, N: r.N, BlockSize: r.BlockSize,
		MaxBlocks: r.MaxBlocks, Seed: r.Seed}
	switch name {
	case "block_size":
		c.BlockSize = value
	case "max_blocks":
		if r.Variant != 6 {
			return nil, fmt.Errorf("kernels: reduce%d has no max_blocks parameter", r.Variant)
		}
		c.MaxBlocks = value
	default:
		return nil, fmt.Errorf("kernels: reduction has no parameter %q", name)
	}
	return c, nil
}

// InputSeed implements profiler.InputSeeded: repeated runs at the same
// size but with fresh inputs keep distinct noise identities.
func (r *Reduction) InputSeed() uint64 { return r.Seed }

// CPUReduce is the reference result: the plain sequential sum.
func CPUReduce(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x
	}
	return s
}

// in returns element i of the input array, a pure function of the seed.
func (r *Reduction) in(i int) float32 { return randomF32(r.Seed, uint64(i)) }

// Input returns the input array, built on demand.
func (r *Reduction) Input() []float32 { return materialize(r.N, r.in) }

// Release drops the partial-sum buffers so sweeps over many runs do not
// accumulate them; the workload must be re-Planned before reuse.
func (r *Reduction) Release() { r.ping, r.pong = nil, nil }

func (r *Reduction) validate() error {
	if r.Variant < 0 || r.Variant > 6 {
		return fmt.Errorf("kernels: reduction variant %d out of range [0,6]", r.Variant)
	}
	if r.N < 2 {
		return fmt.Errorf("kernels: reduction size %d must be at least 2", r.N)
	}
	if r.BlockSize == 0 {
		r.BlockSize = 256
	}
	if r.BlockSize < 64 || r.BlockSize > 1024 || r.BlockSize&(r.BlockSize-1) != 0 {
		return fmt.Errorf("kernels: reduction block size %d must be a power of two in [64,1024]", r.BlockSize)
	}
	if r.MaxBlocks == 0 {
		r.MaxBlocks = 64
	}
	return nil
}

// Plan implements profiler.Workload.
func (r *Reduction) Plan(dev *gpusim.Device) ([]profiler.Launch, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	r.ping, r.pong = newPaged[float32](reducePage), newPaged[float32](reducePage)
	// The __shared__ sdata of every block of every launch. A block stores
	// all of it before reading it, so it is never cleared.
	sdata := make([]float32, r.BlockSize)

	var launches []profiler.Launch
	var final *paged[float32]
	src, dst := r.in, r.ping
	srcBase, dstBase := uint64(baseInput), uint64(baseOutput)
	count := r.N
	for count > 1 {
		nextDst, nextDstBase := r.pong, uint64(basePong)
		if dst == r.pong {
			nextDst, nextDstBase = r.ping, baseOutput
		}
		blocks := blocksFor(r.Variant, count, r.BlockSize, r.MaxBlocks)
		cfg := gpusim.LaunchConfig{
			GridDimX: blocks, GridDimY: 1,
			BlockDimX: r.BlockSize, BlockDimY: 1,
			RegsPerThread:     regsForVariant(r.Variant),
			SharedMemPerBlock: 4 * r.BlockSize,
		}
		launches = append(launches, profiler.Launch{
			Label:  r.Name(),
			Config: cfg,
			Kernel: r.kernel(src, dst, sdata, count, srcBase, dstBase),
		})
		final = dst
		src, dst = dst.at, nextDst
		srcBase, dstBase = dstBase, nextDstBase
		count = blocks
	}
	// final is the buffer that receives the final value; capture the
	// scalar after the last launch completes.
	launches[len(launches)-1].Kernel = chain(launches[len(launches)-1].Kernel, func() {
		r.Result = final.at(0)
	})
	return launches, nil
}

// reducePage is the page size of the partial-sum buffers. Each block
// writes one element, so a sampled launch touches at most one page per
// simulated block.
const reducePage = 256

// blocksFor returns the grid size for one launch over count elements.
func blocksFor(variant, count, blockSize, maxBlocks int) int {
	switch {
	case variant <= 2:
		return ceilDiv(count, blockSize)
	case variant <= 5:
		return maxInt(1, ceilDiv(count, 2*blockSize))
	default:
		return maxInt(1, minInt(maxBlocks, ceilDiv(count, 2*blockSize)))
	}
}

// regsForVariant approximates the per-thread register footprint of each
// SDK kernel (more unrolling → more registers).
func regsForVariant(v int) int {
	switch {
	case v <= 2:
		return 10
	case v <= 4:
		return 12
	case v == 5:
		return 14
	default:
		return 18
	}
}

func (r *Reduction) kernel(src func(int) float32, dst *paged[float32], sdata []float32, n int, srcBase, dstBase uint64) gpusim.KernelFunc {
	switch r.Variant {
	case 0:
		return reduce0(src, dst, sdata, n, srcBase, dstBase)
	case 1:
		return reduce1(src, dst, sdata, n, srcBase, dstBase)
	case 2:
		return reduce2(src, dst, sdata, n, srcBase, dstBase)
	case 3:
		return reduce3(src, dst, sdata, n, srcBase, dstBase)
	case 4:
		return reduceUnrolled(src, dst, sdata, n, srcBase, dstBase, false, false)
	case 5:
		return reduceUnrolled(src, dst, sdata, n, srcBase, dstBase, true, false)
	default:
		return reduceUnrolled(src, dst, sdata, n, srcBase, dstBase, true, true)
	}
}

// loadToShared performs the initial "sdata[tid] = (i < n) ? g[i] : 0" phase
// common to variants 0–2.
func loadToShared(b *gpusim.Block, src func(int) float32, sdata []float32, n int, srcBase uint64) {
	bdim, _ := b.BlockDim()
	bx, _ := b.BlockIdx()
	b.ForEachWarp(func(w *gpusim.Warp) {
		valid := w.ValidMask()
		tid := laneInts(w.LinearTID)
		gi := laneInts(func(l int) int { return bx*bdim + tid[l] })
		inRange := valid & gpusim.MaskWhere(func(l int) bool { return gi[l] < n })

		w.IntOps(valid, 2) // i = blockIdx.x*blockDim.x + threadIdx.x
		w.Branch(valid, inRange)
		addrs := addrs4(srcBase, &gi)
		w.GlobalLoad(inRange, &addrs, 4)
		for l := 0; l < gpusim.WarpSize; l++ {
			if !valid.Active(l) {
				continue
			}
			if inRange.Active(l) {
				sdata[tid[l]] = src(gi[l])
			} else {
				sdata[tid[l]] = 0
			}
		}
		offs := offs4(&tid)
		w.SharedStore(valid, &offs)
	})
	b.Sync()
}

// writeBlockResult performs the final "if (tid == 0) g_odata[bx] = sdata[0]".
func writeBlockResult(w *gpusim.Warp, bx int, dst *paged[float32], sdata []float32, dstBase uint64) {
	valid := w.ValidMask()
	lane0 := valid & gpusim.MaskFirstN(1)
	if w.WarpID() != 0 {
		lane0 = 0
	}
	w.Branch(valid, lane0)
	if lane0 != 0 {
		var zero [gpusim.WarpSize]uint32
		w.SharedLoad(lane0, &zero)
		out := laneInts(func(int) int { return bx })
		addrs := addrs4(dstBase, &out)
		w.GlobalStore(lane0, &addrs, 4)
		dst.set(bx, sdata[0])
	}
}

// reduce0: interleaved addressing with a modulo guard — heavy divergence.
func reduce0(src func(int) float32, dst *paged[float32], sdata []float32, n int, srcBase, dstBase uint64) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		bdim, _ := b.BlockDim()
		bx, _ := b.BlockIdx()
		loadToShared(b, src, sdata, n, srcBase)

		for s := 1; s < bdim; s *= 2 {
			b.ForEachWarp(func(w *gpusim.Warp) {
				valid := w.ValidMask()
				tid := laneInts(w.LinearTID)
				active := valid & gpusim.MaskWhere(func(l int) bool { return tid[l]%(2*s) == 0 })
				w.IntOps(valid, 3) // modulo is multi-op on GPU integer units
				w.Branch(valid, active)
				if active != 0 {
					applySequentialStep(w, sdata, active, &tid, s)
				}
			})
			b.Sync()
		}
		b.ForEachWarp(func(w *gpusim.Warp) { writeBlockResult(w, bx, dst, sdata, dstBase) })
	}
}

// reduce1: strided indexing replaces the modulo — divergence-free within
// early iterations but introduces shared-memory bank conflicts.
func reduce1(src func(int) float32, dst *paged[float32], sdata []float32, n int, srcBase, dstBase uint64) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		bdim, _ := b.BlockDim()
		bx, _ := b.BlockIdx()
		loadToShared(b, src, sdata, n, srcBase)

		for s := 1; s < bdim; s *= 2 {
			b.ForEachWarp(func(w *gpusim.Warp) {
				valid := w.ValidMask()
				tid := laneInts(w.LinearTID)
				index := laneInts(func(l int) int { return 2 * s * tid[l] })
				active := valid & gpusim.MaskWhere(func(l int) bool { return index[l] < bdim })
				w.IntOps(valid, 2) // index = 2*s*tid; compare
				w.Branch(valid, active)
				if active != 0 {
					applySequentialStep(w, sdata, active, &index, s)
				}
			})
			b.Sync()
		}
		b.ForEachWarp(func(w *gpusim.Warp) { writeBlockResult(w, bx, dst, sdata, dstBase) })
	}
}

// reduce2: sequential addressing — conflict-free, but half the threads
// idle from the first iteration.
func reduce2(src func(int) float32, dst *paged[float32], sdata []float32, n int, srcBase, dstBase uint64) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		bx, _ := b.BlockIdx()
		loadToShared(b, src, sdata, n, srcBase)
		sequentialReduce(b, sdata, 0)
		b.ForEachWarp(func(w *gpusim.Warp) { writeBlockResult(w, bx, dst, sdata, dstBase) })
	}
}

// sequentialReduce runs the "for s = bdim/2; s > stop; s >>= 1" phases used
// by variants 2–4 (stop=0 keeps the barrier to the end; stop=32 leaves the
// last warp for the unrolled finish).
func sequentialReduce(b *gpusim.Block, sdata []float32, stop int) {
	bdim, _ := b.BlockDim()
	for s := bdim / 2; s > stop; s >>= 1 {
		b.ForEachWarp(func(w *gpusim.Warp) {
			valid := w.ValidMask()
			tid := laneInts(w.LinearTID)
			active := valid & gpusim.MaskWhere(func(l int) bool { return tid[l] < s })
			w.IntOps(valid, 1)
			w.Branch(valid, active)
			if active != 0 {
				applySequentialStep(w, sdata, active, &tid, s)
			}
		})
		b.Sync()
	}
}

// reduce3: halve the grid by adding two elements during the global load.
func reduce3(src func(int) float32, dst *paged[float32], sdata []float32, n int, srcBase, dstBase uint64) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		bdim, _ := b.BlockDim()
		bx, _ := b.BlockIdx()
		b.ForEachWarp(func(w *gpusim.Warp) { firstAddLoad(w, bx, bdim, src, sdata, n, srcBase) })
		b.Sync()
		sequentialReduce(b, sdata, 0)
		b.ForEachWarp(func(w *gpusim.Warp) { writeBlockResult(w, bx, dst, sdata, dstBase) })
	}
}

// firstAddLoad is "mySum = g[i] + g[i+blockDim]" with bounds guards.
func firstAddLoad(w *gpusim.Warp, bx, bdim int, src func(int) float32, sdata []float32, n int, srcBase uint64) {
	valid := w.ValidMask()
	tid := laneInts(w.LinearTID)
	gi := laneInts(func(l int) int { return bx*bdim*2 + tid[l] })
	first := valid & gpusim.MaskWhere(func(l int) bool { return gi[l] < n })
	second := valid & gpusim.MaskWhere(func(l int) bool { return gi[l]+bdim < n })

	w.IntOps(valid, 3)
	w.Branch(valid, first)
	a1 := addrs4(srcBase, &gi)
	w.GlobalLoad(first, &a1, 4)
	gi2 := laneInts(func(l int) int { return gi[l] + bdim })
	w.Branch(valid, second)
	a2 := addrs4(srcBase, &gi2)
	w.GlobalLoad(second, &a2, 4)
	w.FloatOps(second, 1)
	for l := 0; l < gpusim.WarpSize; l++ {
		if !valid.Active(l) {
			continue
		}
		var v float32
		if first.Active(l) {
			v = src(gi[l])
		}
		if second.Active(l) {
			v += src(gi2[l])
		}
		sdata[tid[l]] = v
	}
	offs := offs4(&tid)
	w.SharedStore(valid, &offs)
}

// reduceUnrolled covers variants 4, 5 and 6: first-add load (or the
// variant-6 grid-stride accumulation), a sequential reduction down to warp
// width, and the barrier-free unrolled last warp.
func reduceUnrolled(src func(int) float32, dst *paged[float32], sdata []float32, n int, srcBase, dstBase uint64, fullyUnrolled, gridStride bool) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		bdim, _ := b.BlockDim()
		gdim, _ := b.GridDim()
		bx, _ := b.BlockIdx()

		b.ForEachWarp(func(w *gpusim.Warp) {
			if gridStride {
				gridStrideLoad(w, bx, bdim, gdim, src, sdata, n, srcBase)
			} else {
				firstAddLoad(w, bx, bdim, src, sdata, n, srcBase)
			}
		})
		b.Sync()

		// Fully unrolled variants skip the loop bookkeeping; dynamic
		// instruction counts for the compares/branches disappear.
		if fullyUnrolled {
			for s := bdim / 2; s > 32; s >>= 1 {
				b.ForEachWarp(func(w *gpusim.Warp) {
					tid := laneInts(w.LinearTID)
					active := w.ValidMask() & gpusim.MaskWhere(func(l int) bool { return tid[l] < s })
					if active != 0 {
						applySequentialStep(w, sdata, active, &tid, s)
					}
				})
				b.Sync()
			}
		} else {
			sequentialReduce(b, sdata, 32)
		}

		b.ForEachWarp(func(w *gpusim.Warp) {
			// Unrolled last warp: lanes 0–31 of warp 0, no barriers
			// (warp-synchronous execution on volatile shared memory).
			if w.WarpID() == 0 {
				valid := w.ValidMask()
				tid := laneInts(w.LinearTID)
				active := valid & gpusim.MaskFirstN(32)
				w.Branch(valid, active)
				for s := 32; s > 0; s >>= 1 {
					applySequentialStep(w, sdata, active, &tid, s)
				}
			}
			writeBlockResult(w, bx, dst, sdata, dstBase)
		})
	}
}

// applySequentialStep is one "sdata[tid] += sdata[tid+s]" under mask.
func applySequentialStep(w *gpusim.Warp, sdata []float32, active gpusim.Mask, tid *[gpusim.WarpSize]int, s int) {
	self := offs4(tid)
	partner := laneInts(func(l int) int { return tid[l] + s })
	po := offs4(&partner)
	w.SharedLoad(active, &po)
	w.SharedLoad(active, &self)
	w.FloatOps(active, 1)
	for l := 0; l < gpusim.WarpSize; l++ {
		if active.Active(l) && tid[l]+s < len(sdata) {
			sdata[tid[l]] += sdata[tid[l]+s]
		}
	}
	w.SharedStore(active, &self)
}

// gridStrideLoad is reduce6's accumulation loop: each thread strides
// through the array summing into a register before the shared phase.
func gridStrideLoad(w *gpusim.Warp, bx, bdim, gdim int, src func(int) float32, sdata []float32, n int, srcBase uint64) {
	valid := w.ValidMask()
	tid := laneInts(w.LinearTID)
	stride := bdim * 2 * gdim

	var mySum [gpusim.WarpSize]float32
	gi := laneInts(func(l int) int { return bx*bdim*2 + tid[l] })
	w.IntOps(valid, 3)
	for {
		first := valid & gpusim.MaskWhere(func(l int) bool { return gi[l] < n })
		w.Branch(valid, first)
		if first == 0 {
			break
		}
		a1 := addrs4(srcBase, &gi)
		w.GlobalLoad(first, &a1, 4)
		gi2 := laneInts(func(l int) int { return gi[l] + bdim })
		second := valid & gpusim.MaskWhere(func(l int) bool { return gi2[l] < n })
		w.Branch(valid, second)
		a2 := addrs4(srcBase, &gi2)
		w.GlobalLoad(second, &a2, 4)
		w.FloatOps(first, 2)
		w.IntOps(valid, 1) // i += gridSize
		for l := 0; l < gpusim.WarpSize; l++ {
			if first.Active(l) {
				mySum[l] += src(gi[l])
			}
			if second.Active(l) {
				mySum[l] += src(gi2[l])
			}
		}
		for l := range gi {
			gi[l] += stride
		}
	}
	for l := 0; l < gpusim.WarpSize; l++ {
		if valid.Active(l) {
			sdata[tid[l]] = mySum[l]
		}
	}
	offs := offs4(&tid)
	w.SharedStore(valid, &offs)
}

// chain wraps a kernel so that post runs after fn has run the whole final
// block of the grid. The launcher runs blocks sequentially, so post fires
// after the launch's last simulated work.
func chain(fn gpusim.KernelFunc, post func()) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		fn(b)
		gx, gy := b.GridDim()
		bx, by := b.BlockIdx()
		if bx == gx-1 && by == gy-1 {
			post()
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
