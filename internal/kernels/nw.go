package kernels

import (
	"fmt"

	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
)

// nwBlock is the Rodinia BLOCK_SIZE: thread blocks have only 16 threads,
// trading warp utilization for occupancy (§6.1.2: "For maximum occupancy,
// each TB only has 16 threads. This leads to idling of some threads in the
// warps.").
const nwBlock = 16

// nwAlphabet is the amino-acid alphabet size of the similarity table
// (BLOSUM-like, 24 symbols in Rodinia's blosum62).
const nwAlphabet = 24

// NeedlemanWunsch is the Rodinia NW sequence-alignment benchmark: fill an
// (n+1)×(n+1) score matrix with the global-alignment dynamic program,
// processing 16×16 tiles in parallel along anti-diagonal strips. Two
// kernels traverse the matrix: kernel 1 from the top-left and kernel 2 to
// the bottom-right, launched once per strip (2·n/16 − 1 launches total).
type NeedlemanWunsch struct {
	// SeqLen is the sequence length n; must be a positive multiple of 16.
	SeqLen int
	// Penalty is the gap penalty (Rodinia default 10).
	Penalty int32
	// Seed generates the sequences and similarity table.
	Seed uint64

	blosum [nwAlphabet][nwAlphabet]int32
	// score holds the interior of the (n+1)×(n+1) score matrix
	// (Rodinia's input_itemsets), paged by 16×16 tile: cell (i, j), both
	// in [1, n], is element ((i−1)/16 · n/16 + (j−1)/16)·256 + ((i−1)%16)·16
	// + (j−1)%16. Row 0 and column 0 are −index·penalty and are derived,
	// not stored.
	score *paged[int32]
}

// Name implements profiler.Workload.
func (nw *NeedlemanWunsch) Name() string { return "needle" }

// Characteristics implements profiler.Workload.
func (nw *NeedlemanWunsch) Characteristics() map[string]float64 {
	return map[string]float64{"size": float64(nw.SeqLen)}
}

// InputSeed implements profiler.InputSeeded: repeated runs at the same
// size but with fresh sequences keep distinct noise identities.
func (nw *NeedlemanWunsch) InputSeed() uint64 { return nw.Seed }

// Score returns the row-major (n+1)×(n+1) score matrix, built on demand
// (complete after a fully-simulated run).
func (nw *NeedlemanWunsch) Score() []int32 {
	n, cols := nw.SeqLen, nw.SeqLen+1
	inner := tiled(nw.score, n, nwBlock)
	out := make([]int32, cols*cols)
	for i := 0; i < cols; i++ {
		out[i*cols] = nw.border(i)
		out[i] = nw.border(i)
	}
	for i := 0; i < n; i++ {
		copy(out[(i+1)*cols+1:], inner[i*n:(i+1)*n])
	}
	return out
}

// Release drops the score tiles so sweeps do not accumulate them.
func (nw *NeedlemanWunsch) Release() { nw.score = nil }

// border returns the score of cell (i, 0) and of cell (0, i).
func (nw *NeedlemanWunsch) border(i int) int32 { return int32(-i) * nw.Penalty }

// seq1 and seq2 return residue i of the two sequences (1-based), pure
// functions of the seed.
func (nw *NeedlemanWunsch) seq1(i int) int32 { return randomI32(nw.Seed, uint64(i), nwAlphabet) }
func (nw *NeedlemanWunsch) seq2(i int) int32 { return randomI32(nw.Seed^0x5e92, uint64(i), nwAlphabet) }

// ref returns the similarity score of matrix cell (i, j), both 1-based —
// Rodinia precomputes this as the "reference" matrix; we evaluate it
// lazily to avoid the O(n²) allocation.
func (nw *NeedlemanWunsch) ref(i, j int) int32 {
	return nw.blosum[nw.seq1(i)][nw.seq2(j)]
}

// CPUNeedlemanWunsch fills the score matrix sequentially — the reference
// for functional verification.
func (nw *NeedlemanWunsch) CPUNeedlemanWunsch() []int32 {
	n := nw.SeqLen
	cols := n + 1
	out := make([]int32, cols*cols)
	for i := 0; i < cols; i++ {
		out[i*cols] = nw.border(i)
		out[i] = nw.border(i)
	}
	for i := 1; i < cols; i++ {
		for j := 1; j < cols; j++ {
			out[i*cols+j] = max3(
				out[(i-1)*cols+j-1]+nw.ref(i, j),
				out[i*cols+j-1]-nw.Penalty,
				out[(i-1)*cols+j]-nw.Penalty,
			)
		}
	}
	return out
}

// cellOf returns element i of a score page; a page no block wrote is zero.
func cellOf(pg []int32, i int) int32 {
	if pg == nil {
		return 0
	}
	return pg[i]
}

func max3(a, b, c int32) int32 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

// Plan implements profiler.Workload.
func (nw *NeedlemanWunsch) Plan(dev *gpusim.Device) ([]profiler.Launch, error) {
	if nw.SeqLen <= 0 || nw.SeqLen%nwBlock != 0 {
		return nil, fmt.Errorf("kernels: NW sequence length %d must be a positive multiple of %d", nw.SeqLen, nwBlock)
	}
	if nw.Penalty == 0 {
		nw.Penalty = 10
	}
	n := nw.SeqLen
	cols := n + 1
	for a := 0; a < nwAlphabet; a++ {
		for b := 0; b < nwAlphabet; b++ {
			nw.blosum[a][b] = randomI32(nw.Seed^0xb105, uint64(a*nwAlphabet+b), 21) - 10
		}
	}
	nw.score = newPaged[int32](nwBlock * nwBlock)

	blockWidth := n / nwBlock
	plan := newNWPlan(dev, cols)
	shared := new(nwShared)
	var launches []profiler.Launch
	mk := func(label string, strip int, blocks int, topLeft bool) profiler.Launch {
		return profiler.Launch{
			Label: label,
			Config: gpusim.LaunchConfig{
				GridDimX: blocks, GridDimY: 1,
				BlockDimX: nwBlock, BlockDimY: 1,
				RegsPerThread: 24,
				// temp[17][17] + ref[16][16] ints.
				SharedMemPerBlock: 4 * ((nwBlock+1)*(nwBlock+1) + nwBlock*nwBlock),
			},
			Kernel: nw.kernel(plan, shared, strip, blockWidth, topLeft),
		}
	}
	for i := 1; i <= blockWidth; i++ {
		launches = append(launches, mk("needle_cuda_shared_1", i, i, true))
	}
	for i := blockWidth - 1; i >= 1; i-- {
		launches = append(launches, mk("needle_cuda_shared_2", i, i, false))
	}
	return launches, nil
}

// nwPlan holds everything in a needle tile's instruction stream that
// depends only on the lane and the wavefront step, never on the block:
// the shared-memory accesses, with their bank-conflict degrees computed
// once per Plan, the functional DP's per-cell indices, and the lane
// offsets of the global accesses. Every block is one 16-thread warp
// (lanes 0–15), so every block runs the same plan.
type nwPlan struct {
	active, lane0 gpusim.Mask
	// lanes[l] = l and column[l] = cols·l: a lane's global-index offset
	// along a score-matrix row and down a column.
	lanes, column [gpusim.WarpSize]int

	corner    gpusim.SharedAccess          // temp[0][0] = input[index_nw]
	refFill   [nwBlock]gpusim.SharedAccess // ref_s[ty][tid] = reference[…]
	westFill  gpusim.SharedAccess          // temp[tid+1][0] = input[…]
	northFill gpusim.SharedAccess          // temp[0][tid+1] = input[index_n]
	steps     [2*nwBlock - 1]nwStep        // forward, then backward wavefront
	writeBack [nwBlock]gpusim.SharedAccess // input[…] = temp[ty+1][tid+1]
}

// nwStep is one anti-diagonal step of the tile's wavefront: the lanes
// whose cell lies on it, the five shared accesses of the DP update, and
// each active lane's temp/ref_s word indices.
type nwStep struct {
	mask                         gpusim.Mask
	diag, ref, west, north, self gpusim.SharedAccess
	cells                        []nwCell
}

type nwCell struct{ diag, ref, west, north, self int }

// nwShared is a tile's __shared__ memory, temp[17][17] and ref_s[16][16],
// one per Plan for every block of every launch. A block stores each word
// before it reads it, so the arrays are never cleared.
type nwShared struct {
	temp [(nwBlock + 1) * (nwBlock + 1)]int32
	ref  [nwBlock * nwBlock]int32
}

func newNWPlan(dev *gpusim.Device, cols int) *nwPlan {
	const tw = nwBlock + 1
	p := &nwPlan{active: gpusim.MaskFirstN(nwBlock)}
	p.lane0 = p.active & gpusim.MaskFirstN(1)
	for l := range p.lanes {
		p.lanes[l] = l
		p.column[l] = cols * l
	}
	p.corner = sharedAt(dev, p.lane0, func(int) int { return 0 })
	for ty := 0; ty < nwBlock; ty++ {
		p.refFill[ty] = sharedAt(dev, p.active, func(l int) int { return ty*nwBlock + l })
		p.writeBack[ty] = sharedAt(dev, p.active, func(l int) int { return (ty+1)*tw + l + 1 })
	}
	p.westFill = sharedAt(dev, p.active, func(l int) int { return (l + 1) * tw })
	p.northFill = sharedAt(dev, p.active, func(l int) int { return l + 1 })
	for m := 0; m < nwBlock; m++ {
		p.steps[m] = newNWStep(dev, p.active, m, func(l int) (x, y int) { return l + 1, m - l + 1 })
	}
	for m := nwBlock - 2; m >= 0; m-- {
		p.steps[2*nwBlock-2-m] = newNWStep(dev, p.active, m, func(l int) (x, y int) { return l + nwBlock - m, nwBlock - l })
	}
	return p
}

// newNWStep plans the step of diagonal m, where lane l (if l ≤ m) updates
// cell(l) = (t_x, t_y) of temp. Lane 0 is on every diagonal, so no step
// is empty.
func newNWStep(dev *gpusim.Device, active gpusim.Mask, m int, cell func(l int) (x, y int)) nwStep {
	const tw = nwBlock + 1
	s := nwStep{mask: active & gpusim.MaskWhere(func(l int) bool { return l <= m })}
	var byLane [gpusim.WarpSize]nwCell
	for l := range byLane {
		if !s.mask.Active(l) {
			continue
		}
		x, y := cell(l)
		byLane[l] = nwCell{
			diag:  (y-1)*tw + (x - 1),
			ref:   (y-1)*nwBlock + (x - 1),
			west:  y*tw + (x - 1),
			north: (y-1)*tw + x,
			self:  y*tw + x,
		}
		s.cells = append(s.cells, byLane[l])
	}
	at := func(word func(c nwCell) int) gpusim.SharedAccess {
		return sharedAt(dev, s.mask, func(l int) int { return word(byLane[l]) })
	}
	s.diag = at(func(c nwCell) int { return c.diag })
	s.ref = at(func(c nwCell) int { return c.ref })
	s.west = at(func(c nwCell) int { return c.west })
	s.north = at(func(c nwCell) int { return c.north })
	s.self = at(func(c nwCell) int { return c.self })
	return s
}

// kernel processes one 16×16 tile per block along anti-diagonal strip i.
// Each block runs a single 16-thread (half-empty) warp; only its global
// addresses and the functional DP depend on the block.
func (nw *NeedlemanWunsch) kernel(p *nwPlan, sh *nwShared, strip, blockWidth int, topLeft bool) gpusim.KernelFunc {
	const tw = nwBlock + 1
	cols := nw.SeqLen + 1
	penalty := nw.Penalty
	score := nw.score
	active := p.active
	temp, refS := sh.temp[:], sh.ref[:]
	return func(b *gpusim.Block) {
		bx, _ := b.BlockIdx()
		var bIdxX, bIdxY int
		if topLeft {
			bIdxX = bx
			bIdxY = strip - 1 - bx
		} else {
			bIdxX = bx + blockWidth - strip
			bIdxY = blockWidth - bx - 1
		}

		// Cell indices as in Rodinia: index_nw = base, index_w = base +
		// cols, index_n = base + 1 + tid, index = base + cols + 1 + tid.
		// They only address the simulated memory; the values come from
		// the tile's page and its north, west and corner neighbours, or
		// from the derived row 0 and column 0 on the matrix border.
		base := cols*nwBlock*bIdxY + nwBlock*bIdxX
		index := base + cols + 1
		row0, col0 := bIdxY*nwBlock, bIdxX*nwBlock // matrix cell of temp[0][0]
		key := bIdxY*blockWidth + bIdxX            // the tile's page

		var addrs [gpusim.WarpSize]uint64

		b.ForEachWarp(func(w *gpusim.Warp) {
			w.IntOps(active, 6) // index arithmetic

			// temp[0][0] = input[index_nw] (lane 0 only).
			w.Branch(active, p.lane0)
			addrsFrom(&addrs, baseScore, base, &p.lanes)
			w.GlobalLoad(p.lane0, &addrs, 4)
			switch {
			case bIdxY == 0:
				temp[0] = nw.border(col0)
			case bIdxX == 0:
				temp[0] = nw.border(row0)
			default:
				temp[0] = cellOf(score.page(key-blockWidth-1), nwBlock*nwBlock-1)
			}
			w.SharedStoreAt(p.corner)

			// ref_s[ty][tid] = reference[index + cols*ty]: 16 coalesced rows.
			var colRes [nwBlock]int32 // seq2 residues of the tile's columns
			for l := range colRes {
				colRes[l] = nw.seq2(col0 + 1 + l)
			}
			for ty := 0; ty < nwBlock; ty++ {
				addrsFrom(&addrs, baseRef, index+cols*ty, &p.lanes)
				w.GlobalLoad(active, &addrs, 4)
				similarity := &nw.blosum[nw.seq1(row0+1+ty)]
				for l, r := range colRes {
					refS[ty*nwBlock+l] = similarity[r]
				}
				w.SharedStoreAt(p.refFill[ty])
			}
		})
		b.Sync()

		// temp[tid+1][0] = input[index_w + cols*tid]: strided, uncoalesced.
		b.ForEachWarp(func(w *gpusim.Warp) {
			addrsFrom(&addrs, baseScore, base+cols, &p.column)
			w.GlobalLoad(active, &addrs, 4)
			if bIdxX == 0 {
				for l := 0; l < nwBlock; l++ {
					temp[(l+1)*tw] = nw.border(row0 + 1 + l)
				}
			} else {
				west := score.page(key - 1) // its last column
				for l := 0; l < nwBlock; l++ {
					temp[(l+1)*tw] = cellOf(west, l*nwBlock+nwBlock-1)
				}
			}
			w.SharedStoreAt(p.westFill)
		})
		b.Sync()

		// temp[0][tid+1] = input[index_n]: coalesced north row.
		b.ForEachWarp(func(w *gpusim.Warp) {
			addrsFrom(&addrs, baseScore, base+1, &p.lanes)
			w.GlobalLoad(active, &addrs, 4)
			north := temp[1 : nwBlock+1]
			if bIdxY == 0 {
				for l := range north {
					north[l] = nw.border(col0 + 1 + l)
				}
			} else if pg := score.page(key - blockWidth); pg != nil {
				copy(north, pg[(nwBlock-1)*nwBlock:]) // its last row
			} else {
				clear(north)
			}
			w.SharedStoreAt(p.northFill)
		})
		b.Sync()

		// Forward, then backward wavefront over the tile's anti-diagonals:
		// cell (t_y, t_x) gets max(diag+ref, west−penalty, north−penalty).
		for i := range p.steps {
			s := &p.steps[i]
			b.ForEachWarp(func(w *gpusim.Warp) {
				w.IntOps(active, 2) // diagonal index arithmetic
				w.Branch(active, s.mask)
				w.SharedLoadAt(s.diag)
				w.SharedLoadAt(s.ref)
				w.SharedLoadAt(s.west)
				w.SharedLoadAt(s.north)
				w.IntOps(s.mask, 4) // two subtractions, two max ops
				for _, c := range s.cells {
					temp[c.self] = max3(
						temp[c.diag]+refS[c.ref],
						temp[c.west]-penalty,
						temp[c.north]-penalty,
					)
				}
				w.SharedStoreAt(s.self)
			})
			b.Sync()
		}

		// Write the tile back: input[index + cols*ty] = temp[ty+1][tid+1].
		out := score.writable(key)
		b.ForEachWarp(func(w *gpusim.Warp) {
			for ty := 0; ty < nwBlock; ty++ {
				addrsFrom(&addrs, baseScore, index+cols*ty, &p.lanes)
				w.SharedLoadAt(p.writeBack[ty])
				w.GlobalStore(active, &addrs, 4)
				copy(out[ty*nwBlock:][:nwBlock], temp[(ty+1)*tw+1:])
			}
		})
	}
}
