package kernels

import (
	"fmt"

	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
	"blackforest/internal/stats"
)

// histBins is the histogram width (256-bin byte histogram, as in the CUDA
// SDK histogram256 sample).
const histBins = 256

// Histogram is the CUDA SDK 256-bin histogram study — the atomics
// counterpart of the reduction/transpose optimization ladders:
//
//	0 — global atomics: every thread atomicAdds directly into the global
//	    bin array; contention serializes same-bin updates device-wide;
//	1 — shared privatization: each block accumulates a private histogram
//	    in shared memory (shared atomics, block-local contention) and
//	    merges it into the global array once at the end.
//
// The Skew parameter concentrates the input distribution to dial the
// same-address contention from uniform (low) to single-bin (maximal) —
// the knob that makes atomic_replay_overhead an informative counter.
type Histogram struct {
	// Variant selects the kernel, 0–1.
	Variant int
	// N is the number of input elements.
	N int
	// BlockSize is threads per block (default 256).
	BlockSize int
	// Skew in [0, 1) is the fraction of inputs forced into bin 0.
	Skew float64
	// Seed generates the input.
	Seed uint64

	// bins holds the histogram: a store of one histBins-element page.
	bins *paged[uint32]
}

// Name implements profiler.Workload.
func (h *Histogram) Name() string { return fmt.Sprintf("histogram%d", h.Variant) }

// Characteristics implements profiler.Workload. A non-default block size
// (the optimizer's transformation) joins the identity so transformed runs
// never share a noise seed or cache key with the baseline; at the default
// it is omitted, keeping every existing run's identity — and therefore
// every existing profile — bit-identical.
func (h *Histogram) Characteristics() map[string]float64 {
	c := map[string]float64{"size": float64(h.N), "skew": h.Skew}
	if h.BlockSize != 0 && h.BlockSize != 256 {
		c["block_size"] = float64(h.BlockSize)
	}
	return c
}

// Params implements the optimizer's Tunable contract: the launch-config
// parameters a search may transform, at their effective values.
func (h *Histogram) Params() map[string]int {
	bs := h.BlockSize
	if bs == 0 {
		bs = 256
	}
	return map[string]int{"block_size": bs}
}

// ParamDomain implements the optimizer's Tunable contract.
func (h *Histogram) ParamDomain(name string) []int {
	if name == "block_size" {
		return []int{64, 128, 256, 512, 1024}
	}
	return nil
}

// WithParam implements the optimizer's Tunable contract: a fresh,
// unplanned copy of the workload with one parameter changed.
func (h *Histogram) WithParam(name string, value int) (profiler.Workload, error) {
	if name != "block_size" {
		return nil, fmt.Errorf("kernels: histogram has no parameter %q", name)
	}
	return &Histogram{Variant: h.Variant, N: h.N, BlockSize: value,
		Skew: h.Skew, Seed: h.Seed}, nil
}

// InputSeed implements profiler.InputSeeded: repeated runs at the same
// size but with fresh inputs keep distinct noise identities.
func (h *Histogram) InputSeed() uint64 { return h.Seed }

// in returns input element i, a pure function of the seed and the skew:
// a Skew fraction of the elements is forced into bin 0.
func (h *Histogram) in(i int) uint8 {
	r := stats.SplitMix64(h.Seed + uint64(i))
	if r&0xffffff < uint64(h.Skew*float64(1<<24)) {
		return 0
	}
	return uint8(r >> 24)
}

// Release drops the histogram.
func (h *Histogram) Release() { h.bins.release(); h.bins = nil }

// Plan implements profiler.Workload.
func (h *Histogram) Plan(dev *gpusim.Device) ([]profiler.Launch, error) {
	if h.Variant < 0 || h.Variant > 1 {
		return nil, fmt.Errorf("kernels: histogram variant %d out of range [0,1]", h.Variant)
	}
	if h.N <= 0 {
		return nil, fmt.Errorf("kernels: histogram size %d must be positive", h.N)
	}
	if h.BlockSize == 0 {
		h.BlockSize = 256
	}
	if h.BlockSize < 64 || h.BlockSize > 1024 || h.BlockSize&(h.BlockSize-1) != 0 {
		return nil, fmt.Errorf("kernels: histogram block size %d must be a power of two in [64,1024]", h.BlockSize)
	}
	if h.Skew < 0 || h.Skew >= 1 {
		return nil, fmt.Errorf("kernels: histogram skew %v must be in [0,1)", h.Skew)
	}
	h.bins = newPaged[uint32](histBins)

	blocks := ceilDiv(h.N, h.BlockSize)
	const maxBlocks = 240 // SDK-style grid cap; threads loop over input
	if blocks > maxBlocks {
		blocks = maxBlocks
	}
	shared := 0
	if h.Variant == 1 {
		shared = 4 * histBins
	}
	cfg := gpusim.LaunchConfig{
		GridDimX: blocks, GridDimY: 1,
		BlockDimX: h.BlockSize, BlockDimY: 1,
		RegsPerThread:     16,
		SharedMemPerBlock: shared,
	}
	return []profiler.Launch{{Label: h.Name(), Config: cfg, Kernel: h.kernel()}}, nil
}

func (h *Histogram) kernel() gpusim.KernelFunc {
	n := h.N
	variant := h.Variant
	var priv []uint32 // variant 1's __shared__ private histogram
	if variant == 1 {
		priv = make([]uint32, histBins)
	}
	return func(b *gpusim.Block) {
		bins := h.bins.writable(0)
		bdim, _ := b.BlockDim()
		gdim, _ := b.GridDim()
		bx, _ := b.BlockIdx()
		stride := bdim * gdim

		if variant == 1 {
			// Zero the private histogram cooperatively (256 words,
			// blockSize threads): histBins/bdim stores per thread.
			clear(priv)
			b.ForEachWarp(func(w *gpusim.Warp) {
				valid := w.ValidMask()
				tid := laneInts(w.LinearTID)
				for o := 0; o < histBins; o += bdim {
					sIdx := laneInts(func(l int) int { return (o + tid[l]) % histBins })
					sOffs := offs4(&sIdx)
					w.SharedStore(valid, &sOffs)
				}
			})
			b.Sync()
		}

		b.ForEachWarp(func(w *gpusim.Warp) {
			valid := w.ValidMask()
			tid := laneInts(w.LinearTID)
			gi := laneInts(func(l int) int { return bx*bdim + tid[l] })
			w.IntOps(valid, 2)
			for {
				inRange := valid & gpusim.MaskWhere(func(l int) bool { return gi[l] < n })
				w.Branch(valid, inRange)
				if inRange == 0 {
					break
				}
				addrs := addrs4(baseInput, &gi)
				w.GlobalLoad(inRange, &addrs, 1)

				var binIdx [gpusim.WarpSize]int
				for l := 0; l < gpusim.WarpSize; l++ {
					if inRange.Active(l) {
						binIdx[l] = int(h.in(gi[l]))
					}
				}
				w.IntOps(inRange, 1)
				if variant == 0 {
					gAddrs := addrs4(baseOutput, &binIdx)
					w.AtomicGlobalAdd(inRange, &gAddrs)
				} else {
					sOffs := offs4(&binIdx)
					w.AtomicSharedAdd(inRange, &sOffs)
				}
				// Functional accumulation (single-threaded simulation
				// makes plain adds exact).
				for l := 0; l < gpusim.WarpSize; l++ {
					if inRange.Active(l) {
						if variant == 0 {
							bins[binIdx[l]]++
						} else {
							priv[binIdx[l]]++
						}
					}
				}
				for l := range gi {
					gi[l] += stride
				}
				w.IntOps(valid, 1)
			}
		})

		if variant == 1 {
			// Merge the private histogram into the global one.
			b.Sync()
			b.ForEachWarp(func(w *gpusim.Warp) {
				valid := w.ValidMask()
				tid := laneInts(w.LinearTID)
				for o := 0; o < histBins; o += bdim {
					idx := laneInts(func(l int) int { return (o + tid[l]) % histBins })
					sOffs := offs4(&idx)
					w.SharedLoad(valid, &sOffs)
					gAddrs := addrs4(baseOutput, &idx)
					w.AtomicGlobalAdd(valid, &gAddrs)
				}
			})
			// The functional merge, once per block.
			for i, v := range priv {
				bins[i] += v
			}
		}
	}
}
