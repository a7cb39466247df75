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

// Release drops the score tiles so sweeps do not accumulate them.
func (nw *NeedlemanWunsch) Release() { nw.score.release(); nw.score = nil }

// border returns the score of cell (i, 0) and of cell (0, i).
func (nw *NeedlemanWunsch) border(i int) int32 { return int32(-i) * nw.Penalty }

// seq1 and seq2 return residue i of the two sequences (1-based), pure
// functions of the seed.
func (nw *NeedlemanWunsch) seq1(i int) int32 { return randomI32(nw.Seed, uint64(i), nwAlphabet) }
func (nw *NeedlemanWunsch) seq2(i int) int32 { return randomI32(nw.Seed^0x5e92, uint64(i), nwAlphabet) }

// cellOf returns element i of a score page; a page no block wrote is zero.
func cellOf(pg []int32, i int) int32 {
	if pg == nil {
		return 0
	}
	return pg[i]
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
	launches := make([]profiler.Launch, 0, 2*blockWidth-1)
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
// once per Plan, the wavefront's strides, and the lane patterns of the
// global accesses. Every block is one 16-thread warp (lanes 0–15), so
// every block runs the same plan.
type nwPlan struct {
	active, lane0 gpusim.Mask
	// The global accesses, charged at the byte address of a block's first
	// cell: row is lanes 0–15 along a matrix row (the ref_s rows, the north
	// row and the write-back), column lanes 0–15 down a column (the west
	// column) and corner lane 0 alone (temp[0][0]).
	row, column, corner *gpusim.GlobalAccess

	cornerFill gpusim.SharedAccess          // temp[0][0] = input[index_nw]
	refFill    [nwBlock]gpusim.SharedAccess // ref_s[ty][tid] = reference[…]
	westFill   gpusim.SharedAccess          // temp[tid+1][0] = input[…]
	northFill  gpusim.SharedAccess          // temp[0][tid+1] = input[index_n]
	steps      [2*nwBlock - 1]nwStep        // forward, then backward wavefront
	writeBack  [nwBlock]gpusim.SharedAccess // input[…] = temp[ty+1][tid+1]
}

// nwStep is one anti-diagonal step of the tile's wavefront. Lanes
// 0..lanes−1 are on it, and lane l updates temp word self0−16l from ref_s
// word ref0−15l and its diagonal, west and north neighbours, temp words
// self−18, self−1 and self−17; the five shared accesses of the update
// are planned from the same strides.
type nwStep struct {
	mask                         gpusim.Mask
	lanes, self0, ref0           int
	diag, ref, west, north, self gpusim.SharedAccess
}

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
	var row, column [gpusim.WarpSize]uint64
	for l := range row {
		row[l] = 4 * uint64(l)
		column[l] = 4 * uint64(cols*l)
	}
	p.row = gpusim.NewGlobalAccess(p.active, &row, 4)
	p.column = gpusim.NewGlobalAccess(p.active, &column, 4)
	p.corner = gpusim.NewGlobalAccess(p.lane0, &row, 4)
	p.cornerFill = sharedAt(dev, p.lane0, func(int) int { return 0 })
	for ty := 0; ty < nwBlock; ty++ {
		p.refFill[ty] = sharedAt(dev, p.active, func(l int) int { return ty*nwBlock + l })
		p.writeBack[ty] = sharedAt(dev, p.active, func(l int) int { return (ty+1)*tw + l + 1 })
	}
	p.westFill = sharedAt(dev, p.active, func(l int) int { return (l + 1) * tw })
	p.northFill = sharedAt(dev, p.active, func(l int) int { return l + 1 })
	// Forward diagonal m: lane l updates temp[m−l+1][l+1] from
	// ref_s[m−l][l]. Backward diagonal m: temp[16−l][l+16−m] from
	// ref_s[15−l][l+15−m].
	for m := 0; m < nwBlock; m++ {
		p.steps[m] = newNWStep(dev, p.active, m, (m+1)*tw+1, m*nwBlock)
	}
	for m := nwBlock - 2; m >= 0; m-- {
		p.steps[2*nwBlock-2-m] = newNWStep(dev, p.active, m, nwBlock*tw+nwBlock-m, nwBlock*nwBlock-1-m)
	}
	return p
}

// newNWStep plans the step of diagonal m, whose lanes 0..m update temp
// words self0−16l from ref_s words ref0−15l. Lane 0 is on every diagonal,
// so no step is empty.
func newNWStep(dev *gpusim.Device, active gpusim.Mask, m, self0, ref0 int) nwStep {
	const tw = nwBlock + 1
	s := nwStep{mask: active & gpusim.MaskFirstN(m+1), lanes: m + 1, self0: self0, ref0: ref0}
	from := func(d int) gpusim.SharedAccess {
		return sharedAt(dev, s.mask, func(l int) int { return self0 - (tw-1)*l - d })
	}
	s.diag, s.west, s.north, s.self = from(tw+1), from(1), from(tw), from(0)
	s.ref = sharedAt(dev, s.mask, func(l int) int { return ref0 - (nwBlock-1)*l })
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
		addrOf := func(region uint64, i int) uint64 { return region + 4*uint64(i) }

		b.ForEachWarp(func(w *gpusim.Warp) {
			w.IntOps(active, 6) // index arithmetic

			// temp[0][0] = input[index_nw] (lane 0 only).
			w.Branch(active, p.lane0)
			w.GlobalLoadAt(p.corner, addrOf(baseScore, base))
			switch {
			case bIdxY == 0:
				temp[0] = nw.border(col0)
			case bIdxX == 0:
				temp[0] = nw.border(row0)
			default:
				temp[0] = cellOf(score.page(key-blockWidth-1), nwBlock*nwBlock-1)
			}
			w.SharedStoreAt(p.cornerFill)

			// ref_s[ty][tid] = reference[index + cols*ty]: 16 coalesced rows.
			var colRes [nwBlock]int32 // seq2 residues of the tile's columns
			for l := range colRes {
				colRes[l] = nw.seq2(col0 + 1 + l)
			}
			for ty := 0; ty < nwBlock; ty++ {
				w.GlobalLoadAt(p.row, addrOf(baseRef, index+cols*ty))
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
			w.GlobalLoadAt(p.column, addrOf(baseScore, base+cols))
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
			w.GlobalLoadAt(p.row, addrOf(baseScore, base+1))
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
				self, ref := s.self0, s.ref0
				for range s.lanes {
					temp[self] = max(
						temp[self-tw-1]+refS[ref],
						temp[self-1]-penalty,
						temp[self-tw]-penalty,
					)
					self, ref = self-(tw-1), ref-(nwBlock-1)
				}
				w.SharedStoreAt(s.self)
			})
			b.Sync()
		}

		// Write the tile back: input[index + cols*ty] = temp[ty+1][tid+1].
		out := score.writable(key)
		b.ForEachWarp(func(w *gpusim.Warp) {
			for ty := 0; ty < nwBlock; ty++ {
				w.SharedLoadAt(p.writeBack[ty])
				w.GlobalStoreAt(p.row, addrOf(baseScore, index+cols*ty))
				copy(out[ty*nwBlock:][:nwBlock], temp[(ty+1)*tw+1:])
			}
		})
	}
}
