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
	return []profiler.Launch{{
		Label:  "matrixMul",
		Config: cfg,
		Kernel: m.kernel(m.planWarps(dev)),
	}}, nil
}

// matmulWarp is one warp's plan for the tiled multiply: everything that
// depends only on the warp's index within the block, never on the block.
type matmulWarp struct {
	// rel[l] = ty·n + tx: lane l's element offset from the block's corner
	// in A, B and C. tile[l] = ty·b + tx is its As/Bs word; rowBase[l] =
	// ty·b starts its As row.
	rel, tile, rowBase, tx [gpusim.WarpSize]int
	off                    uint64                // 4·rel[0]: where warp 0's global pattern is charged from
	store                  gpusim.SharedAccess   // As[ty][tx], Bs[ty][tx]
	loadA, loadB           []gpusim.SharedAccess // per k: As[ty][k], Bs[k][tx]
}

// planWarps builds the per-warp plans of a b×b block on dev, and the one
// global access every warp's A, B and C accesses share. With blockDim
// (b, b), each warp covers 32/b consecutive tile rows; lane → (tx, ty) via
// the linear thread index. b² is a multiple of 32, so every lane of every
// warp is live. Warp w's lane offsets are warp 0's plus off =
// 4·n·(32/b)·w bytes, a whole number of 128-byte lines because n is a
// multiple of b ≥ 16; coalescing does not change under a whole-line
// shift, so warp 0's pattern charged at base+off is warp w's access.
func (m *MatMul) planWarps(dev *gpusim.Device) ([]matmulWarp, *gpusim.GlobalAccess) {
	n, b := m.N, m.Tile
	full := gpusim.FullMask()
	warps := make([]matmulWarp, b*b/gpusim.WarpSize)
	for id := range warps {
		p := &warps[id]
		var ty [gpusim.WarpSize]int
		for l := range ty {
			t := id*gpusim.WarpSize + l
			p.tx[l], ty[l] = t%b, t/b
			p.rel[l] = ty[l]*n + p.tx[l]
			p.tile[l] = ty[l]*b + p.tx[l]
			p.rowBase[l] = ty[l] * b
		}
		p.off = 4 * uint64(p.rel[0])
		p.store = sharedAt(dev, full, func(l int) int { return p.tile[l] })
		p.loadA = make([]gpusim.SharedAccess, b)
		p.loadB = make([]gpusim.SharedAccess, b)
		for k := 0; k < b; k++ {
			p.loadA[k] = sharedAt(dev, full, func(l int) int { return p.rowBase[l] + k })
			p.loadB[k] = sharedAt(dev, full, func(l int) int { return k*b + p.tx[l] })
		}
	}
	var offs [gpusim.WarpSize]uint64
	for l, r := range warps[0].rel {
		offs[l] = 4 * uint64(r)
	}
	return warps, gpusim.NewGlobalAccess(full, &offs, 4)
}

// kernel is the tiled multiply. Only the global access's base (the
// block's tile corner) and the arithmetic depend on the block.
// Each thread's accumulator lives across barriers, so it is kept in an
// array indexed by linear thread ID and cleared at block start; the As
// and Bs tiles are stored whole before every read.
func (m *MatMul) kernel(warps []matmulWarp, global *gpusim.GlobalAccess) gpusim.KernelFunc {
	n := m.N
	b := m.Tile
	unroll := m.Unroll // 0 = fully unrolled: no loop-control overhead
	c := m.c
	full := gpusim.FullMask() // b² is a multiple of 32, so every lane is live
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
				p := &warps[w.WarpID()]
				if t == 0 {
					w.IntOps(full, 4) // index arithmetic for row/col
				}
				w.IntOps(full, 4)
				w.GlobalLoadAt(global, baseA+4*uint64(aStart)+p.off)
				w.GlobalLoadAt(global, baseB+4*uint64(bStart)+p.off)
				for l, s := range p.tile {
					as[s] = m.a(aStart + p.rel[l])
					bs[s] = m.b(bStart + p.rel[l])
				}
				w.SharedStoreAt(p.store)
				w.SharedStoreAt(p.store)
			})
			blk.Sync()

			blk.ForEachWarp(func(w *gpusim.Warp) {
				p := &warps[w.WarpID()]
				acc := accs[w.WarpID()*gpusim.WarpSize:][:gpusim.WarpSize]
				for k := 0; k < b; k++ {
					if unroll > 0 && unroll < b && k%unroll == 0 {
						w.IntOps(full, 1) // loop counter + branch per unroll group
					}
					w.SharedLoadAt(p.loadA[k])
					w.SharedLoadAt(p.loadB[k])
					w.FloatOps(full, 1) // fused multiply-add
					for l := range acc {
						acc[l] += as[p.rowBase[l]+k] * bs[k*b+p.tx[l]]
					}
				}
			})
			blk.Sync()
		}

		cStart := by*b*n + bx*b // C[by*b][bx*b]
		out := c.writable(by*tiles + bx)
		blk.ForEachWarp(func(w *gpusim.Warp) {
			p := &warps[w.WarpID()]
			w.IntOps(full, 2)
			w.GlobalStoreAt(global, baseC+4*uint64(cStart)+p.off)
			for l, v := range accs[w.WarpID()*gpusim.WarpSize:][:gpusim.WarpSize] {
				out[p.tile[l]] = v
			}
		})
	}
}
