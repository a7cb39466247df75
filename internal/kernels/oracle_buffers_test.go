package kernels

import "blackforest/internal/gpusim"

// The kernel bodies below are the reduction, transpose and histogram
// kernels as they were before kernel inputs became index-derived and
// written buffers paged: they read materialized input arrays and write
// make-zeroed output arrays. Their shared arrays are allocated once per
// oracle plan, as the kernels' are. oracle_test.go requires the current
// kernels to produce equal counters, cycles, breakdowns and outputs.

func oracleReduceKernel(variant int, src, dst, sdata []float32, n int, srcBase, dstBase uint64) gpusim.KernelFunc {
	switch variant {
	case 0:
		return oracleReduce0(src, dst, sdata, n, srcBase, dstBase)
	case 1:
		return oracleReduce1(src, dst, sdata, n, srcBase, dstBase)
	case 2:
		return oracleReduce2(src, dst, sdata, n, srcBase, dstBase)
	case 3:
		return oracleReduce3(src, dst, sdata, n, srcBase, dstBase)
	case 4:
		return oracleReduceUnrolled(src, dst, sdata, n, srcBase, dstBase, false, false)
	case 5:
		return oracleReduceUnrolled(src, dst, sdata, n, srcBase, dstBase, true, false)
	default:
		return oracleReduceUnrolled(src, dst, sdata, n, srcBase, dstBase, true, true)
	}
}

// oracleLoadToShared performs the initial "sdata[tid] = (i < n) ? g[i] : 0" phase
// common to variants 0–2.
func oracleLoadToShared(b *gpusim.Block, src []float32, sdata []float32, n int, srcBase uint64) {
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
				sdata[tid[l]] = src[gi[l]]
			} else {
				sdata[tid[l]] = 0
			}
		}
		offs := offs4(&tid)
		w.SharedStore(valid, &offs)
	})
	b.Sync()
}

// oracleWriteBlockResult performs the final "if (tid == 0) g_odata[bx] = sdata[0]".
func oracleWriteBlockResult(w *gpusim.Warp, bx int, dst []float32, sdata []float32, dstBase uint64) {
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
		dst[bx] = sdata[0]
	}
}

// oracleReduce0: interleaved addressing with a modulo guard — heavy divergence.
func oracleReduce0(src, dst, sdata []float32, n int, srcBase, dstBase uint64) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		bdim, _ := b.BlockDim()
		bx, _ := b.BlockIdx()
		oracleLoadToShared(b, src, sdata, n, srcBase)

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
		b.ForEachWarp(func(w *gpusim.Warp) { oracleWriteBlockResult(w, bx, dst, sdata, dstBase) })
	}
}

// oracleReduce1: strided indexing replaces the modulo — divergence-free within
// early iterations but introduces shared-memory bank conflicts.
func oracleReduce1(src, dst, sdata []float32, n int, srcBase, dstBase uint64) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		bdim, _ := b.BlockDim()
		bx, _ := b.BlockIdx()
		oracleLoadToShared(b, src, sdata, n, srcBase)

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
		b.ForEachWarp(func(w *gpusim.Warp) { oracleWriteBlockResult(w, bx, dst, sdata, dstBase) })
	}
}

// oracleReduce2: sequential addressing — conflict-free, but half the threads
// idle from the first iteration.
func oracleReduce2(src, dst, sdata []float32, n int, srcBase, dstBase uint64) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		bx, _ := b.BlockIdx()
		oracleLoadToShared(b, src, sdata, n, srcBase)
		sequentialReduce(b, sdata, 0)
		b.ForEachWarp(func(w *gpusim.Warp) { oracleWriteBlockResult(w, bx, dst, sdata, dstBase) })
	}
}

// oracleReduce3: halve the grid by adding two elements during the global load.
func oracleReduce3(src, dst, sdata []float32, n int, srcBase, dstBase uint64) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		bdim, _ := b.BlockDim()
		bx, _ := b.BlockIdx()
		b.ForEachWarp(func(w *gpusim.Warp) { oracleFirstAddLoad(w, bx, bdim, src, sdata, n, srcBase) })
		b.Sync()
		sequentialReduce(b, sdata, 0)
		b.ForEachWarp(func(w *gpusim.Warp) { oracleWriteBlockResult(w, bx, dst, sdata, dstBase) })
	}
}

// oracleFirstAddLoad is "mySum = g[i] + g[i+blockDim]" with bounds guards.
func oracleFirstAddLoad(w *gpusim.Warp, bx, bdim int, src []float32, sdata []float32, n int, srcBase uint64) {
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
			v = src[gi[l]]
		}
		if second.Active(l) {
			v += src[gi2[l]]
		}
		sdata[tid[l]] = v
	}
	offs := offs4(&tid)
	w.SharedStore(valid, &offs)
}

// oracleReduceUnrolled covers variants 4, 5 and 6: first-add load (or the
// variant-6 grid-stride accumulation), a sequential reduction down to warp
// width, and the barrier-free unrolled last warp.
func oracleReduceUnrolled(src, dst, sdata []float32, n int, srcBase, dstBase uint64, fullyUnrolled, gridStride bool) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		bdim, _ := b.BlockDim()
		gdim, _ := b.GridDim()
		bx, _ := b.BlockIdx()

		b.ForEachWarp(func(w *gpusim.Warp) {
			if gridStride {
				oracleGridStrideLoad(w, bx, bdim, gdim, src, sdata, n, srcBase)
			} else {
				oracleFirstAddLoad(w, bx, bdim, src, sdata, n, srcBase)
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
			oracleWriteBlockResult(w, bx, dst, sdata, dstBase)
		})
	}
}

// oracleGridStrideLoad is reduce6's accumulation loop: each thread strides
// through the array summing into a register before the shared phase.
func oracleGridStrideLoad(w *gpusim.Warp, bx, bdim, gdim int, src []float32, sdata []float32, n int, srcBase uint64) {
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
				mySum[l] += src[gi[l]]
			}
			if second.Active(l) {
				mySum[l] += src[gi2[l]]
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

// oracleTransposeKernel moves one 32×32 tile per block; each of the `rows` warps covers
// one row-slice and iterates 32/rows row offsets (ty, ty+rows, …).
func oracleTransposeKernel(t *Transpose, in, out []float32) gpusim.KernelFunc {
	n := t.N
	rows := t.Rows
	variant := t.Variant
	tileW := transTile // words per tile row in shared memory
	if variant == 2 {
		tileW = transTile + 1
	}
	full := gpusim.FullMask() // blockDim.x is 32: every lane is live
	tile := make([]float32, transTile*tileW)
	return func(b *gpusim.Block) {
		bx, by := b.BlockIdx()

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
						out[wIdx[l]] = in[rIdx[l]]
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
					tile[sIdx[l]] = in[rIdx[l]]
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
					out[wIdx[l]] = tile[sIdx[l]]
				}
			}
		})
	}
}

func oracleHistogramKernel(h *Histogram, input []uint8, bins []uint32) gpusim.KernelFunc {
	n := h.N
	variant := h.Variant
	var priv []uint32
	if variant == 1 {
		priv = make([]uint32, histBins)
	}
	return func(b *gpusim.Block) {
		bdim, _ := b.BlockDim()
		gdim, _ := b.GridDim()
		bx, _ := b.BlockIdx()
		stride := bdim * gdim

		if variant == 1 {
			clear(priv)
			// Zero the private histogram cooperatively (256 words,
			// blockSize threads): histBins/bdim stores per thread.
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
						binIdx[l] = int(input[gi[l]])
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
