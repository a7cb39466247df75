package kernels

// The workloads keep only what a simulated run needs: inputs are pure
// functions of the seed and outputs live in paged stores. The functional
// checks read whole arrays, so the materializers and the sequential CPU
// references they compare against live here.

// materialize returns elements [0, n) of an index-derived input, for the
// accessors that hand a whole array to a caller.
func materialize[T any](n int, at func(int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = at(i)
	}
	return out
}

// tiled returns an n×n row-major matrix from a store indexed tile-major
// by t×t tiles: page ty·(n/t)+tx holds tile (ty, tx), row-major.
func tiled[T int32 | uint32 | float32](p *paged[T], n, t int) []T {
	out := make([]T, n*n)
	if p == nil {
		return out
	}
	grid := n / t
	for k, pg := range p.pages {
		ty, tx := k/grid, k%grid
		for r := 0; r < t; r++ {
			copy(out[(ty*t+r)*n+tx*t:][:t], pg[r*t:])
		}
	}
	return out
}

// Input returns the input array, built on demand.
func (r *Reduction) Input() []float32 { return materialize(r.N, r.in) }

// CPUReduce is the reference result: the plain sequential sum.
func CPUReduce(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x
	}
	return s
}

// Input returns the input bytes, built on demand.
func (h *Histogram) Input() []uint8 { return materialize(h.N, h.in) }

// Bins returns the computed histogram, built on demand (complete after a
// fully-simulated run).
func (h *Histogram) Bins() []uint32 {
	out := make([]uint32, histBins)
	copy(out, h.bins.page(0))
	return out
}

// CPUHistogram is the reference histogram.
func CPUHistogram(data []uint8) []uint32 {
	out := make([]uint32, histBins)
	for _, v := range data {
		out[v]++
	}
	return out
}

// A, B and C return the row-major input and output matrices, built on
// demand (C after a run; it is complete after a fully-simulated one).
func (m *MatMul) A() []float32 { return materialize(m.N*m.N, m.a) }
func (m *MatMul) B() []float32 { return materialize(m.N*m.N, m.b) }
func (m *MatMul) C() []float32 { return tiled(m.c, m.N, m.Tile) }

// CPUMatMul is the reference n×n row-major multiply.
func CPUMatMul(a, b []float32, n int) []float32 {
	c := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			brow := b[k*n : (k+1)*n]
			crow := c[i*n : (i+1)*n]
			for j, v := range brow {
				crow[j] += aik * v
			}
		}
	}
	return c
}

// In and Out return the row-major input and output matrices, built on
// demand (Out after a run; it is complete after a fully-simulated one).
func (t *Transpose) In() []float32  { return materialize(t.N*t.N, t.in) }
func (t *Transpose) Out() []float32 { return tiled(t.out, t.N, transTile) }

// CPUTranspose is the reference row-major transpose.
func CPUTranspose(in []float32, n int) []float32 {
	out := make([]float32, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			out[x*n+y] = in[y*n+x]
		}
	}
	return out
}

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
			out[i*cols+j] = max(
				out[(i-1)*cols+j-1]+nw.ref(i, j),
				out[i*cols+j-1]-nw.Penalty,
				out[(i-1)*cols+j]-nw.Penalty,
			)
		}
	}
	return out
}
