package kernels

import "blackforest/internal/gpusim"

// The needle and matmul kernel bodies below are the differential oracles
// for the access hoisting and the recorded charges in nw.go and
// matmul.go: they build every shared-memory offset and global address per
// block and charge every instruction through the per-call
// SharedLoad/SharedStore and GlobalLoad/GlobalStore paths in every block,
// where the kernels charge GlobalAccess handles and add a stream recorded
// once per Plan. Their wavefront walks per-cell indices, not strides, and
// matmul's product runs lane by lane inside its warp phases. They also
// read the materialized input arrays and write the full-size output
// arrays that Plan built before inputs became index-derived and outputs
// paged. oracle_test.go requires the current kernels to produce equal
// counters, cycles, breakdowns and outputs.

// oracleKernel is needle's per-block kernel as it was before its
// lane-only shared accesses moved into Plan: every block rebuilds its
// offsets and the simulator recomputes their conflict degrees per call.
// Lane values are rebuilt from the thread ID in every barrier phase. It
// reads the materialized sequences and score matrix of the pre-change
// Plan (see oracleNeedleArrays) and keeps temp and ref_s in sh, which the
// caller allocates once for all launches.
func (nw *NeedlemanWunsch) oracleKernel(seq1, seq2, score []int32, sh *nwShared, strip, blockWidth int, topLeft bool) gpusim.KernelFunc {
	cols := nw.SeqLen + 1
	penalty := nw.Penalty
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

		// Cell indices as in Rodinia.
		base := cols*nwBlock*bIdxY + nwBlock*bIdxX
		indexNW := base
		indexW := base + cols
		lanes := func(w *gpusim.Warp) (active gpusim.Mask, tid, index [gpusim.WarpSize]int) {
			tid = laneInts(w.LinearTID)
			index = laneInts(func(l int) int { return base + cols + 1 + tid[l] })
			return w.ValidMask(), tid, index // lanes 0–15
		}

		b.ForEachWarp(func(w *gpusim.Warp) {
			active, tid, index := lanes(w)
			w.IntOps(active, 6) // index arithmetic

			// temp[0][0] = input[index_nw] (lane 0 only).
			lane0 := active & gpusim.MaskFirstN(1)
			w.Branch(active, lane0)
			nwIdx := laneInts(func(int) int { return indexNW })
			nwAddrs := addrs4(baseScore, &nwIdx)
			w.GlobalLoad(lane0, &nwAddrs, 4)
			temp[0] = score[indexNW]
			var zeroOffs [gpusim.WarpSize]uint32
			w.SharedStore(lane0, &zeroOffs)

			// ref_s[ty][tid] = reference[index + cols*ty]: 16 coalesced rows.
			for ty := 0; ty < nwBlock; ty++ {
				rIdx := laneInts(func(l int) int { return index[l] + cols*ty })
				rAddrs := addrs4(baseRef, &rIdx)
				w.GlobalLoad(active, &rAddrs, 4)
				sIdx := laneInts(func(l int) int { return ty*nwBlock + tid[l] })
				sOffs := offs4(&sIdx)
				for l := 0; l < gpusim.WarpSize; l++ {
					if active.Active(l) {
						// Matrix cell (row, col) of this lane's ref entry.
						row := bIdxY*nwBlock + ty + 1
						col := bIdxX*nwBlock + tid[l] + 1
						refS[sIdx[l]] = nw.blosum[seq1[row]][seq2[col]]
					}
				}
				w.SharedStore(active, &sOffs)
			}
		})
		b.Sync()

		// temp[tid+1][0] = input[index_w + cols*tid]: strided, uncoalesced.
		b.ForEachWarp(func(w *gpusim.Warp) {
			active, tid, _ := lanes(w)
			wIdx := laneInts(func(l int) int { return indexW + cols*tid[l] })
			wAddrs := addrs4(baseScore, &wIdx)
			w.GlobalLoad(active, &wAddrs, 4)
			wOff := laneInts(func(l int) int { return (tid[l] + 1) * (nwBlock + 1) })
			wOffs := offs4(&wOff)
			for l := 0; l < gpusim.WarpSize; l++ {
				if active.Active(l) {
					temp[wOff[l]] = score[wIdx[l]]
				}
			}
			w.SharedStore(active, &wOffs)
		})
		b.Sync()

		// temp[0][tid+1] = input[index_n]: coalesced north row.
		b.ForEachWarp(func(w *gpusim.Warp) {
			active, tid, _ := lanes(w)
			indexN := laneInts(func(l int) int { return base + tid[l] + 1 })
			nAddrs := addrs4(baseScore, &indexN)
			w.GlobalLoad(active, &nAddrs, 4)
			nOff := laneInts(func(l int) int { return tid[l] + 1 })
			nOffs := offs4(&nOff)
			for l := 0; l < gpusim.WarpSize; l++ {
				if active.Active(l) {
					temp[nOff[l]] = score[indexN[l]]
				}
			}
			w.SharedStore(active, &nOffs)
		})
		b.Sync()

		// Forward wavefront over the tile's anti-diagonals.
		for m := 0; m < nwBlock; m++ {
			b.ForEachWarp(func(w *gpusim.Warp) {
				active, tid, _ := lanes(w)
				step := active & gpusim.MaskWhere(func(l int) bool { return tid[l] <= m })
				nw.oracleDPStep(w, temp, refS, active, step, tid, func(l int) (x, y int) {
					return tid[l] + 1, m - tid[l] + 1
				}, penalty)
			})
			b.Sync()
		}
		// Backward wavefront.
		for m := nwBlock - 2; m >= 0; m-- {
			b.ForEachWarp(func(w *gpusim.Warp) {
				active, tid, _ := lanes(w)
				step := active & gpusim.MaskWhere(func(l int) bool { return tid[l] <= m })
				nw.oracleDPStep(w, temp, refS, active, step, tid, func(l int) (x, y int) {
					return tid[l] + nwBlock - m, nwBlock - tid[l]
				}, penalty)
			})
			b.Sync()
		}

		// Write the tile back: input[index + cols*ty] = temp[ty+1][tid+1].
		b.ForEachWarp(func(w *gpusim.Warp) {
			active, tid, index := lanes(w)
			for ty := 0; ty < nwBlock; ty++ {
				oIdx := laneInts(func(l int) int { return index[l] + cols*ty })
				oAddrs := addrs4(baseScore, &oIdx)
				tOff := laneInts(func(l int) int { return (ty+1)*(nwBlock+1) + tid[l] + 1 })
				tOffs := offs4(&tOff)
				w.SharedLoad(active, &tOffs)
				w.GlobalStore(active, &oAddrs, 4)
				for l := 0; l < gpusim.WarpSize; l++ {
					if active.Active(l) {
						score[oIdx[l]] = temp[tOff[l]]
					}
				}
			}
		})
	}
}

// oracleDPStep is the pre-change wavefront step of oracleKernel. It performs one anti-diagonal step: for each active lane, cell
// (t_y, t_x) gets max(diag+ref, west−penalty, north−penalty).
func (nw *NeedlemanWunsch) oracleDPStep(w *gpusim.Warp, temp, refS []int32, active, step gpusim.Mask,
	tid [gpusim.WarpSize]int, cell func(l int) (x, y int), penalty int32) {
	w.IntOps(active, 2) // diagonal index arithmetic
	w.Branch(active, step)
	if step == 0 {
		return
	}
	const tw = nwBlock + 1
	var diag, west, north, self, refOff [gpusim.WarpSize]int
	for l := 0; l < gpusim.WarpSize; l++ {
		if !step.Active(l) {
			continue
		}
		x, y := cell(l)
		diag[l] = (y-1)*tw + (x - 1)
		west[l] = y*tw + (x - 1)
		north[l] = (y-1)*tw + x
		self[l] = y*tw + x
		refOff[l] = (y-1)*nwBlock + (x - 1)
	}
	dOffs := offs4(&diag)
	wOffs := offs4(&west)
	nOffs := offs4(&north)
	sOffs := offs4(&self)
	rOffs := offs4(&refOff)
	w.SharedLoad(step, &dOffs)
	w.SharedLoad(step, &rOffs)
	w.SharedLoad(step, &wOffs)
	w.SharedLoad(step, &nOffs)
	w.IntOps(step, 4) // two subtractions, two max ops
	for l := 0; l < gpusim.WarpSize; l++ {
		if step.Active(l) {
			temp[self[l]] = max(
				temp[diag[l]]+refS[refOff[l]],
				temp[west[l]]-penalty,
				temp[north[l]]-penalty,
			)
		}
	}
	w.SharedStore(step, &sOffs)
}

// oracleKernel is matmul's kernel as it was before its per-warp shared
// accesses moved into Plan. With blockDim (b, b), each warp covers 32/b
// consecutive tile rows; lane → (tx, ty) via the linear thread index,
// rebuilt in every barrier phase. Each thread's accumulator lives across
// barriers in an array indexed by linear thread ID, cleared at block
// start. It reads materialized input matrices and writes a full-size
// output matrix.
func (m *MatMul) oracleKernel(a, bm, c []float32) gpusim.KernelFunc {
	n := m.N
	b := m.Tile
	unroll := m.Unroll // 0 = fully unrolled: no loop-control overhead
	as, bs, accs := make([]float32, b*b), make([]float32, b*b), make([]float32, b*b)
	return func(blk *gpusim.Block) {
		bx, by := blk.BlockIdx()
		clear(accs)
		lanes := func(w *gpusim.Warp) (tx, ty, row, col [gpusim.WarpSize]int) {
			for l := 0; l < gpusim.WarpSize; l++ {
				t := w.LinearTID(l)
				tx[l] = t % b
				ty[l] = t / b
				row[l] = by*b + ty[l]
				col[l] = bx*b + tx[l]
			}
			return tx, ty, row, col
		}

		tiles := n / b
		for t := 0; t < tiles; t++ {
			blk.ForEachWarp(func(w *gpusim.Warp) {
				full := w.ValidMask() // b² is a multiple of 32, so always full
				tx, ty, row, col := lanes(w)
				if t == 0 {
					w.IntOps(full, 4) // index arithmetic for row/col
				}
				// As[ty][tx] = A[row][t*b+tx]; Bs[ty][tx] = B[t*b+ty][col]
				aIdx := laneInts(func(l int) int { return row[l]*n + t*b + tx[l] })
				bIdx := laneInts(func(l int) int { return (t*b+ty[l])*n + col[l] })
				aAddrs := addrs4(baseA, &aIdx)
				bAddrs := addrs4(baseB, &bIdx)
				w.IntOps(full, 4)
				w.GlobalLoad(full, &aAddrs, 4)
				w.GlobalLoad(full, &bAddrs, 4)
				sIdx := laneInts(func(l int) int { return ty[l]*b + tx[l] })
				sOffs := offs4(&sIdx)
				for l := 0; l < gpusim.WarpSize; l++ {
					as[sIdx[l]] = a[aIdx[l]]
					bs[sIdx[l]] = bm[bIdx[l]]
				}
				w.SharedStore(full, &sOffs)
				w.SharedStore(full, &sOffs)
			})
			blk.Sync()

			blk.ForEachWarp(func(w *gpusim.Warp) {
				full := w.ValidMask()
				tx, ty, _, _ := lanes(w)
				acc := accs[w.WarpID()*gpusim.WarpSize:][:gpusim.WarpSize]
				for k := 0; k < b; k++ {
					if unroll > 0 && unroll < b && k%unroll == 0 {
						w.IntOps(full, 1) // loop counter + branch per unroll group
					}
					aOff := laneInts(func(l int) int { return ty[l]*b + k })
					bOff := laneInts(func(l int) int { return k*b + tx[l] })
					ao := offs4(&aOff)
					bo := offs4(&bOff)
					w.SharedLoad(full, &ao)
					w.SharedLoad(full, &bo)
					w.FloatOps(full, 1) // fused multiply-add
					for l := range acc {
						acc[l] += as[aOff[l]] * bs[bOff[l]]
					}
				}
			})
			blk.Sync()
		}

		blk.ForEachWarp(func(w *gpusim.Warp) {
			full := w.ValidMask()
			_, _, row, col := lanes(w)
			cIdx := laneInts(func(l int) int { return row[l]*n + col[l] })
			cAddrs := addrs4(baseC, &cIdx)
			w.IntOps(full, 2)
			w.GlobalStore(full, &cAddrs, 4)
			for l, v := range accs[w.WarpID()*gpusim.WarpSize:][:gpusim.WarpSize] {
				c[cIdx[l]] = v
			}
		})
	}
}
