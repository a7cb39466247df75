package kernels

import (
	"fmt"

	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
)

// Transpose tile geometry, as in the CUDA SDK transpose sample.
const (
	transTile = 32 // TILE_DIM
	transRows = 8  // BLOCK_ROWS: each thread moves TILE_DIM/BLOCK_ROWS elements
)

// Transpose is the CUDA SDK matrix-transpose optimization study: three
// variants of out = inᵀ for an n×n float32 matrix, each fixing the
// previous one's bottleneck — the same pedagogical ladder as the reduction
// benchmark, and a natural test of BlackForest's bottleneck analysis:
//
//	0 — naive: coalesced reads, strided (uncoalesced) writes
//	1 — shared-memory tiles: both sides coalesced, but the 32×32 tile
//	    makes column reads hit a single bank (32-way conflicts)
//	2 — padded tiles (32×33): conflict-free
type Transpose struct {
	// Variant selects the kernel, 0–2.
	Variant int
	// N is the matrix dimension; must be a multiple of 32.
	N int
	// Rows is BLOCK_ROWS: the block is (32, Rows) threads and each thread
	// moves 32/Rows elements of its tile. 0 selects the SDK default of 8;
	// the optimizer searches other divisors of 32.
	Rows int
	// Seed generates the input.
	Seed uint64

	// out holds the transpose, paged by 32×32 output tile: one page per
	// block.
	out *paged[float32]
}

// Name implements profiler.Workload.
func (t *Transpose) Name() string { return fmt.Sprintf("transpose%d", t.Variant) }

// Characteristics implements profiler.Workload. A non-default BLOCK_ROWS
// (the optimizer's block-geometry transformation) joins the identity so
// transformed runs never share a noise seed or cache key with the
// baseline; at the default it is omitted, keeping every existing run's
// identity — and therefore every existing profile — bit-identical.
func (t *Transpose) Characteristics() map[string]float64 {
	c := map[string]float64{"size": float64(t.N)}
	if t.Rows != 0 && t.Rows != transRows {
		c["block_rows"] = float64(t.Rows)
	}
	return c
}

// Params implements the optimizer's Tunable contract: the launch-config
// parameters a search may transform, at their effective values.
func (t *Transpose) Params() map[string]int {
	r := t.Rows
	if r == 0 {
		r = transRows
	}
	return map[string]int{"block_rows": r}
}

// ParamDomain implements the optimizer's Tunable contract.
func (t *Transpose) ParamDomain(name string) []int {
	if name == "block_rows" {
		return []int{2, 4, 8, 16, 32}
	}
	return nil
}

// WithParam implements the optimizer's Tunable contract: a fresh,
// unplanned copy of the workload with one parameter changed.
func (t *Transpose) WithParam(name string, value int) (profiler.Workload, error) {
	if name != "block_rows" {
		return nil, fmt.Errorf("kernels: transpose has no parameter %q", name)
	}
	return &Transpose{Variant: t.Variant, N: t.N, Rows: value, Seed: t.Seed}, nil
}

// InputSeed implements profiler.InputSeeded: repeated runs at the same
// size but with fresh inputs keep distinct noise identities.
func (t *Transpose) InputSeed() uint64 { return t.Seed }

// in returns element i of the row-major input, a pure function of the
// seed.
func (t *Transpose) in(i int) float32 { return randomF32(t.Seed, uint64(i)) }

// Release drops the output so sweeps do not accumulate it.
func (t *Transpose) Release() { t.out.release(); t.out = nil }

// Plan implements profiler.Workload.
func (t *Transpose) Plan(dev *gpusim.Device) ([]profiler.Launch, error) {
	if t.Variant < 0 || t.Variant > 2 {
		return nil, fmt.Errorf("kernels: transpose variant %d out of range [0,2]", t.Variant)
	}
	if t.N <= 0 || t.N%transTile != 0 {
		return nil, fmt.Errorf("kernels: transpose size %d must be a positive multiple of %d", t.N, transTile)
	}
	if t.Rows == 0 {
		t.Rows = transRows
	}
	if t.Rows < 1 || t.Rows > transTile || transTile%t.Rows != 0 {
		return nil, fmt.Errorf("kernels: transpose block rows %d must divide %d", t.Rows, transTile)
	}
	n := t.N
	t.out = newPaged[float32](transTile * transTile)
	shared := 0
	if t.Variant > 0 {
		width := transTile
		if t.Variant == 2 {
			width = transTile + 1
		}
		shared = 4 * transTile * width
	}
	cfg := gpusim.LaunchConfig{
		GridDimX: n / transTile, GridDimY: n / transTile,
		BlockDimX: transTile, BlockDimY: t.Rows,
		RegsPerThread:     14,
		SharedMemPerBlock: shared,
	}
	return []profiler.Launch{{Label: t.Name(), Config: cfg, Kernel: t.kernel()}}, nil
}

// kernel moves one 32×32 tile per block; each of the `rows` warps covers
// one row-slice and iterates 32/rows row offsets (ty, ty+rows, …).
func (t *Transpose) kernel() gpusim.KernelFunc {
	n := t.N
	rows := t.Rows
	variant := t.Variant
	tileW := transTile // words per tile row in shared memory
	if variant == 2 {
		tileW = transTile + 1
	}
	full := gpusim.FullMask() // blockDim.x is 32: every lane is live
	grid := n / transTile
	var tile []float32 // the tiled variants' __shared__ tile, stored before it is read
	if variant > 0 {
		tile = make([]float32, transTile*tileW)
	}
	return func(b *gpusim.Block) {
		bx, by := b.BlockIdx()
		// The block transposes input tile (by, bx) into output tile
		// (bx, by), one page of the tile-major store.
		out := t.out.writable(bx*grid + by)

		if variant == 0 {
			// Naive: out[x*n + y] = in[y*n + x].
			b.ForEachWarp(func(w *gpusim.Warp) {
				ty := w.WarpID() // blockDim (32,rows): warp k is thread row k
				w.IntOps(full, 4)
				for j := 0; j < transTile/rows; j++ {
					row := by*transTile + ty + j*rows
					rIdx := laneInts(func(l int) int { return row*n + bx*transTile + l })
					rAddrs := addrs4(baseA, &rIdx)
					w.GlobalLoad(full, &rAddrs, 4)
					wIdx := laneInts(func(l int) int { return (bx*transTile+l)*n + row })
					wAddrs := addrs4(baseB, &wIdx)
					w.GlobalStore(full, &wAddrs, 4)
					for l := 0; l < gpusim.WarpSize; l++ {
						out[l*transTile+ty+j*rows] = t.in(rIdx[l])
					}
				}
			})
			return
		}

		// Load phase: tile[(ty+j*8)][tx] = in[(by*32+ty+j*8)*n + bx*32+tx].
		b.ForEachWarp(func(w *gpusim.Warp) {
			ty := w.WarpID()
			w.IntOps(full, 4)
			for j := 0; j < transTile/rows; j++ {
				row := by*transTile + ty + j*rows
				rIdx := laneInts(func(l int) int { return row*n + bx*transTile + l })
				rAddrs := addrs4(baseA, &rIdx)
				w.GlobalLoad(full, &rAddrs, 4)
				sIdx := laneInts(func(l int) int { return (ty+j*rows)*tileW + l })
				sOffs := offs4(&sIdx)
				for l := 0; l < gpusim.WarpSize; l++ {
					tile[sIdx[l]] = t.in(rIdx[l])
				}
				w.SharedStore(full, &sOffs)
			}
		})
		b.Sync()
		// Store phase: out[(bx*32+ty+j*8)*n + by*32+tx] = tile[tx][ty+j*8]
		// — the column read that conflicts without padding.
		b.ForEachWarp(func(w *gpusim.Warp) {
			ty := w.WarpID()
			for j := 0; j < transTile/rows; j++ {
				col := ty + j*rows
				sIdx := laneInts(func(l int) int { return l*tileW + col })
				sOffs := offs4(&sIdx)
				w.SharedLoad(full, &sOffs)
				wIdx := laneInts(func(l int) int { return (bx*transTile+col)*n + by*transTile + l })
				wAddrs := addrs4(baseB, &wIdx)
				w.GlobalStore(full, &wAddrs, 4)
				for l := 0; l < gpusim.WarpSize; l++ {
					out[col*transTile+l] = tile[sIdx[l]]
				}
			}
		})
	}
}
