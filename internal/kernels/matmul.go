package kernels

import (
	"fmt"

	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
)

// MatMul is the CUDA SDK tiled matrix multiplication: C = A·B for n×n
// float32 matrices, computed by a grid of (n/b)×(n/b) thread blocks, each
// loading b×b tiles of A and B through shared memory (§6.1.1 of the
// paper). Load and store traffic is highly unbalanced — b loads per store
// — which is why the paper finds store-throughput counters dominating the
// variable importance.
type MatMul struct {
	// N is the matrix dimension; must be a multiple of Tile.
	N int
	// Tile is the tile edge b (SDK BLOCK_SIZE, default 16).
	Tile int
	// Unroll is the explicit unroll factor of the inner product loop.
	// 0 (the default) models the SDK kernel's fully unrolled loop; an
	// explicit factor u in {1, 2, 4, 8} spends a loop-control op every u
	// iterations but holds fewer values live, shrinking the per-thread
	// register footprint — the classic unroll/occupancy trade the
	// optimizer searches over.
	Unroll int
	// Seed generates the input matrices.
	Seed uint64

	// c holds the product, paged by Tile×Tile output tile: one page per
	// block.
	c *paged[float32]
}

// Name implements profiler.Workload.
func (m *MatMul) Name() string { return "matmul" }

// Characteristics implements profiler.Workload. Non-default tile and
// unroll settings (the optimizer's transformations) join the identity so
// transformed runs never share a noise seed or cache key with the
// baseline; at the defaults they are omitted, keeping every existing
// run's identity — and therefore every existing profile — bit-identical.
func (m *MatMul) Characteristics() map[string]float64 {
	c := map[string]float64{"size": float64(m.N)}
	if m.Tile != 0 && m.Tile != 16 {
		c["tile"] = float64(m.Tile)
	}
	if m.Unroll != 0 {
		c["unroll"] = float64(m.Unroll)
	}
	return c
}

// Params implements the optimizer's Tunable contract: the launch-config
// parameters a search may transform, at their effective values.
func (m *MatMul) Params() map[string]int {
	t := m.Tile
	if t == 0 {
		t = 16
	}
	return map[string]int{"tile": t, "unroll": m.Unroll}
}

// ParamDomain implements the optimizer's Tunable contract. unroll 0 is
// the compiler's full unroll.
func (m *MatMul) ParamDomain(name string) []int {
	switch name {
	case "tile":
		return []int{16, 32}
	case "unroll":
		return []int{0, 1, 2, 4, 8}
	}
	return nil
}

// WithParam implements the optimizer's Tunable contract: a fresh,
// unplanned copy of the workload with one parameter changed.
func (m *MatMul) WithParam(name string, value int) (profiler.Workload, error) {
	c := &MatMul{N: m.N, Tile: m.Tile, Unroll: m.Unroll, Seed: m.Seed}
	switch name {
	case "tile":
		if m.N%value != 0 {
			return nil, fmt.Errorf("kernels: matmul size %d is not a multiple of tile %d", m.N, value)
		}
		c.Tile = value
	case "unroll":
		c.Unroll = value
	default:
		return nil, fmt.Errorf("kernels: matmul has no parameter %q", name)
	}
	return c, nil
}

// InputSeed implements profiler.InputSeeded: repeated runs at the same
// size but with fresh inputs keep distinct noise identities.
func (m *MatMul) InputSeed() uint64 { return m.Seed }

// a and b return element i of the row-major input matrices, pure
// functions of the seed.
func (m *MatMul) a(i int) float32 { return randomF32(m.Seed, uint64(i)) }
func (m *MatMul) b(i int) float32 { return randomF32(m.Seed^0xb, uint64(i)) }

// Release drops the product so sweeps do not accumulate it.
func (m *MatMul) Release() { m.c.release(); m.c = nil }

// Plan implements profiler.Workload.
func (m *MatMul) Plan(dev *gpusim.Device) ([]profiler.Launch, error) {
	if m.Tile == 0 {
		m.Tile = 16
	}
	if m.Tile != 16 && m.Tile != 32 {
		return nil, fmt.Errorf("kernels: matmul tile %d must be 16 or 32", m.Tile)
	}
	if m.N <= 0 || m.N%m.Tile != 0 {
		return nil, fmt.Errorf("kernels: matmul size %d must be a positive multiple of tile %d", m.N, m.Tile)
	}
	switch m.Unroll {
	case 0, 1, 2, 4, 8:
	default:
		return nil, fmt.Errorf("kernels: matmul unroll %d must be 0 (full), 1, 2, 4, or 8", m.Unroll)
	}
	m.c = newPaged[float32](m.Tile * m.Tile)

	grid := m.N / m.Tile
	// Full unrolling (the default) keeps every partial product live: 20
	// registers, as the SDK kernel compiles. An explicit unroll factor
	// holds fewer values and needs less.
	regs := 20
	if m.Unroll > 0 && m.Unroll < m.Tile {
		regs = 16 + m.Unroll/2
	}
	cfg := gpusim.LaunchConfig{
		GridDimX: grid, GridDimY: grid,
		BlockDimX: m.Tile, BlockDimY: m.Tile,
		RegsPerThread:     regs,
		SharedMemPerBlock: 2 * 4 * m.Tile * m.Tile,
	}
	stream, err := m.record(dev, cfg)
	if err != nil {
		return nil, err
	}
	return []profiler.Launch{{
		Label:  "matrixMul",
		Config: cfg,
		Kernel: m.kernel(stream),
	}}, nil
}

// record returns a block's whole instruction stream but its global
// accesses: per tile, the fill phase (index arithmetic and the As/Bs
// stores) and the k-loop (the As/Bs loads, the multiply-adds and, for an
// explicit unroll factor, a loop-control op per unroll group), with the
// barriers after each; then the epilogue's index arithmetic. None of it
// depends on the block. With blockDim (b, b), warp w covers tile rows
// (32/b)·w onward and lane l is thread t = 32w + l, at (tx, ty) =
// (t mod b, t / b); b² is a multiple of 32, so every lane is live.
func (m *MatMul) record(dev *gpusim.Device, cfg gpusim.LaunchConfig) (gpusim.Counters, error) {
	b := m.Tile
	unroll := m.Unroll // 0 = fully unrolled: no loop-control overhead
	full := gpusim.FullMask()
	warps := b * b / gpusim.WarpSize
	// store[w] is warp w's As[ty][tx] (and Bs[ty][tx]); load[2(wb+k)] and
	// load[2(wb+k)+1] are its As[ty][k] and Bs[k][tx].
	store := make([]gpusim.SharedAccess, warps)
	load := make([]gpusim.SharedAccess, 2*warps*b)
	for w := range warps {
		t0 := w * gpusim.WarpSize
		store[w] = sharedAt(dev, full, func(l int) int { return t0 + l })
		for k := 0; k < b; k++ {
			load[2*(w*b+k)] = sharedAt(dev, full, func(l int) int { return (t0+l)/b*b + k })
			load[2*(w*b+k)+1] = sharedAt(dev, full, func(l int) int { return k*b + (t0+l)%b })
		}
	}
	return gpusim.Record(dev, cfg, func(blk *gpusim.Block) {
		for t := 0; t < m.N/b; t++ {
			blk.ForEachWarp(func(w *gpusim.Warp) {
				if t == 0 {
					w.IntOps(full, 4) // index arithmetic for row/col
				}
				w.IntOps(full, 4)
				w.SharedStoreAt(store[w.WarpID()]) // As[ty][tx]
				w.SharedStoreAt(store[w.WarpID()]) // Bs[ty][tx]
			})
			blk.Sync()

			blk.ForEachWarp(func(w *gpusim.Warp) {
				kl := load[2*w.WarpID()*b:][:2*b]
				for k := 0; k < b; k++ {
					if unroll > 0 && unroll < b && k%unroll == 0 {
						w.IntOps(full, 1) // loop counter + branch per unroll group
					}
					w.SharedLoadAt(kl[2*k])
					w.SharedLoadAt(kl[2*k+1])
					w.FloatOps(full, 1) // fused multiply-add
				}
			})
			blk.Sync()
		}
		blk.ForEachWarp(func(w *gpusim.Warp) { w.IntOps(full, 2) })
	})
}

// kernel is the tiled multiply: per tile, each warp loads its part of the
// A and B tiles into As and Bs, then every thread (ty, tx) adds
// As[ty][k]·Bs[k][tx] to its accumulator for k ascending — the float32
// sequence of the CUDA loop. The loops run k outside tx, so Bs is read
// along its rows; each accumulator still sees its k in order. The
// accumulators sit in an array indexed by
// linear thread ID, ty·b + tx, which is also the thread's word of the
// output tile; they are cleared at block start, and As and Bs are stored
// whole before every read. Only the global accesses are charged per
// block, in program order; the rest of the instruction stream is the
// recorded stream, added once per block.
//
// Warp w's lanes sit at ty·n + tx from the block's corner in A, B and C:
// warp 0's offsets plus (32/b)·w rows. That shift is 4·n·(32/b)·w bytes, a
// whole number of 128-byte lines because n is a multiple of b ≥ 16;
// coalescing does not change under a whole-line shift, so warp 0's
// pattern charged at base + shift is warp w's access, and one
// GlobalAccess serves every warp.
func (m *MatMul) kernel(stream gpusim.Counters) gpusim.KernelFunc {
	n := m.N
	b := m.Tile
	c := m.c
	rowsPerWarp := gpusim.WarpSize / b
	var rel [gpusim.WarpSize]int // warp 0's lane offsets, ty·n + tx
	var offs [gpusim.WarpSize]uint64
	for l := range rel {
		rel[l] = l/b*n + l%b
		offs[l] = 4 * uint64(rel[l])
	}
	global := gpusim.NewGlobalAccess(gpusim.FullMask(), &offs, 4)
	as, bs, accs := make([]float32, b*b), make([]float32, b*b), make([]float32, b*b)
	return func(blk *gpusim.Block) {
		bx, by := blk.BlockIdx()
		clear(accs)

		tiles := n / b
		for t := 0; t < tiles; t++ {
			// As[ty][tx] = A[row][t*b+tx]; Bs[ty][tx] = B[t*b+ty][col]
			aStart := by*b*n + t*b // A[by*b][t*b]
			bStart := t*b*n + bx*b // B[t*b][bx*b]
			blk.ForEachWarp(func(w *gpusim.Warp) {
				shift := w.WarpID() * rowsPerWarp * n
				w.GlobalLoadAt(global, baseA+4*uint64(aStart+shift))
				w.GlobalLoadAt(global, baseB+4*uint64(bStart+shift))
				t0 := w.WarpID() * gpusim.WarpSize
				for l, r := range rel {
					as[t0+l] = m.a(aStart + shift + r)
					bs[t0+l] = m.b(bStart + shift + r)
				}
			})

			for ty := 0; ty < b; ty++ {
				acc := accs[ty*b:][:b]
				for k, a := range as[ty*b:][:b] {
					for tx, v := range bs[k*b:][:b] {
						acc[tx] += a * v
					}
				}
			}
		}

		cStart := by*b*n + bx*b // C[by*b][bx*b]
		blk.ForEachWarp(func(w *gpusim.Warp) {
			w.GlobalStoreAt(global, baseC+4*uint64(cStart+w.WarpID()*rowsPerWarp*n))
		})
		copy(c.writable(by*tiles+bx), accs)
		blk.Charge(&stream)
	}
}
