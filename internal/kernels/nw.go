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
	cfg := gpusim.LaunchConfig{
		GridDimX: 1, GridDimY: 1,
		BlockDimX: nwBlock, BlockDimY: 1,
		RegsPerThread: 24,
		// temp[17][17] + ref[16][16] ints.
		SharedMemPerBlock: 4 * ((nwBlock+1)*(nwBlock+1) + nwBlock*nwBlock),
	}
	plan, err := newNWPlan(dev, cfg, cols)
	if err != nil {
		return nil, err
	}
	shared := new(nwShared)
	launches := make([]profiler.Launch, 0, 2*blockWidth-1)
	mk := func(label string, strip int, blocks int, topLeft bool) profiler.Launch {
		c := cfg
		c.GridDimX = blocks
		return profiler.Launch{Label: label, Config: c, Kernel: nw.kernel(plan, shared, strip, blockWidth, topLeft)}
	}
	for i := 1; i <= blockWidth; i++ {
		launches = append(launches, mk("needle_cuda_shared_1", i, i, true))
	}
	for i := blockWidth - 1; i >= 1; i-- {
		launches = append(launches, mk("needle_cuda_shared_2", i, i, false))
	}
	return launches, nil
}

// nwPlan holds everything in a needle tile's simulation that depends
// only on the lane and the wavefront step, never on the block. Every
// block is one 16-thread warp (lanes 0–15) and runs the same plan.
type nwPlan struct {
	// stream is the tile's whole instruction stream but its global
	// accesses, recorded once per Plan: the index arithmetic, the fill
	// stores, the 31 wavefront steps, the write-back loads and the
	// barriers between them.
	stream gpusim.Counters
	// The global accesses, charged at the byte address of a block's first
	// cell: row is lanes 0–15 along a matrix row (the ref_s rows, the north
	// row and the write-back), column lanes 0–15 down a column (the west
	// column) and corner lane 0 alone (temp[0][0]).
	row, column, corner *gpusim.GlobalAccess
	steps               [2*nwBlock - 1]nwStep // forward, then backward wavefront
}

// nwStep is one anti-diagonal step of the tile's wavefront. Lanes
// 0..lanes−1 are on it, and lane l updates temp word self0−16l from ref_s
// word ref0−15l and its diagonal, west and north neighbours, temp words
// self−18, self−1 and self−17.
type nwStep struct{ lanes, self0, ref0 int }

// nwShared is a tile's __shared__ memory, temp[17][17] and ref_s[16][16],
// one per Plan for every block of every launch. A block stores each word
// before it reads it, so the arrays are never cleared.
type nwShared struct {
	temp [(nwBlock + 1) * (nwBlock + 1)]int32
	ref  [nwBlock * nwBlock]int32
}

// newNWPlan plans a tile of cfg's block shape on dev for a score matrix
// cols cells wide.
func newNWPlan(dev *gpusim.Device, cfg gpusim.LaunchConfig, cols int) (*nwPlan, error) {
	const tw = nwBlock + 1
	active := gpusim.MaskFirstN(nwBlock)
	lane0 := gpusim.MaskFirstN(1)
	p := new(nwPlan)
	var row, column [gpusim.WarpSize]uint64
	for l := range row {
		row[l] = 4 * uint64(l)
		column[l] = 4 * uint64(cols*l)
	}
	p.row = gpusim.NewGlobalAccess(active, &row, 4)
	p.column = gpusim.NewGlobalAccess(active, &column, 4)
	p.corner = gpusim.NewGlobalAccess(lane0, &row, 4)
	// Forward diagonal m: lane l updates temp[m−l+1][l+1] from
	// ref_s[m−l][l]. Backward diagonal m: temp[16−l][l+16−m] from
	// ref_s[15−l][l+15−m]. Lane 0 is on every diagonal, so no step is
	// empty.
	for m := 0; m < nwBlock; m++ {
		p.steps[m] = nwStep{lanes: m + 1, self0: (m+1)*tw + 1, ref0: m * nwBlock}
	}
	for m := nwBlock - 2; m >= 0; m-- {
		p.steps[2*nwBlock-2-m] = nwStep{lanes: m + 1, self0: nwBlock*tw + nwBlock - m, ref0: nwBlock*nwBlock - 1 - m}
	}

	var err error
	p.stream, err = gpusim.Record(dev, cfg, func(b *gpusim.Block) {
		b.ForEachWarp(func(w *gpusim.Warp) {
			w.IntOps(active, 6)     // index arithmetic
			w.Branch(active, lane0) // temp[0][0] is lane 0's
			w.SharedStoreAt(sharedAt(dev, lane0, func(int) int { return 0 }))
			for ty := 0; ty < nwBlock; ty++ { // ref_s[ty][tid]
				w.SharedStoreAt(sharedAt(dev, active, func(l int) int { return ty*nwBlock + l }))
			}
		})
		b.Sync()
		b.ForEachWarp(func(w *gpusim.Warp) { // temp[tid+1][0]
			w.SharedStoreAt(sharedAt(dev, active, func(l int) int { return (l + 1) * tw }))
		})
		b.Sync()
		b.ForEachWarp(func(w *gpusim.Warp) { // temp[0][tid+1]
			w.SharedStoreAt(sharedAt(dev, active, func(l int) int { return l + 1 }))
		})
		b.Sync()
		for _, s := range p.steps {
			mask := gpusim.MaskFirstN(s.lanes)
			from := func(d int) gpusim.SharedAccess {
				return sharedAt(dev, mask, func(l int) int { return s.self0 - (tw-1)*l - d })
			}
			b.ForEachWarp(func(w *gpusim.Warp) {
				w.IntOps(active, 2) // diagonal index arithmetic
				w.Branch(active, mask)
				w.SharedLoadAt(from(tw + 1)) // diagonal
				w.SharedLoadAt(sharedAt(dev, mask, func(l int) int { return s.ref0 - (nwBlock-1)*l }))
				w.SharedLoadAt(from(1))  // west
				w.SharedLoadAt(from(tw)) // north
				w.IntOps(mask, 4)        // two subtractions, two max ops
				w.SharedStoreAt(from(0))
			})
			b.Sync()
		}
		b.ForEachWarp(func(w *gpusim.Warp) { // temp[ty+1][tid+1]
			for ty := 0; ty < nwBlock; ty++ {
				w.SharedLoadAt(sharedAt(dev, active, func(l int) int { return (ty+1)*tw + l + 1 }))
			}
		})
	})
	return p, err
}

// kernel processes one 16×16 tile per block along anti-diagonal strip i.
// Each block is a single 16-thread (half-empty) warp, and everything but
// its global accesses is the plan's recorded stream. So the warp issues
// the global accesses in program order — the corner, the 16 ref_s rows,
// the west column, the north row and, after the wavefront, the 16
// write-back rows — the DP runs as plain loops, and the block charges
// the stream once.
func (nw *NeedlemanWunsch) kernel(p *nwPlan, sh *nwShared, strip, blockWidth int, topLeft bool) gpusim.KernelFunc {
	const tw = nwBlock + 1
	cols := nw.SeqLen + 1
	penalty := nw.Penalty
	score := nw.score
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
			// temp[0][0] = input[index_nw] (lane 0 only).
			w.GlobalLoadAt(p.corner, addrOf(baseScore, base))
			switch {
			case bIdxY == 0:
				temp[0] = nw.border(col0)
			case bIdxX == 0:
				temp[0] = nw.border(row0)
			default:
				temp[0] = cellOf(score.page(key-blockWidth-1), nwBlock*nwBlock-1)
			}

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
			}

			// temp[tid+1][0] = input[index_w + cols*tid]: strided, uncoalesced.
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

			// temp[0][tid+1] = input[index_n]: coalesced north row.
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

			// Forward, then backward wavefront over the tile's
			// anti-diagonals: cell (t_y, t_x) gets max(diag+ref,
			// west−penalty, north−penalty).
			for _, s := range p.steps {
				self, ref := s.self0, s.ref0
				for range s.lanes {
					temp[self] = max(
						temp[self-tw-1]+refS[ref],
						temp[self-1]-penalty,
						temp[self-tw]-penalty,
					)
					self, ref = self-(tw-1), ref-(nwBlock-1)
				}
			}

			// Write the tile back: input[index + cols*ty] = temp[ty+1][tid+1].
			out := score.writable(key)
			for ty := 0; ty < nwBlock; ty++ {
				w.GlobalStoreAt(p.row, addrOf(baseScore, index+cols*ty))
				copy(out[ty*nwBlock:][:nwBlock], temp[(ty+1)*tw+1:])
			}
		})
		b.Charge(&p.stream)
	}
}
