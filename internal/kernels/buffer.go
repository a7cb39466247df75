package kernels

import "math/bits"

// Kernel inputs are pure functions of (seed, index), computed where a
// kernel reads them, so they cost nothing until a simulated block reads
// them. Only the buffers kernels write are stored, each in a paged store:
// storage grows with the blocks simulated, not with the problem size.

// paged is the one store of every buffer a kernel writes: a sparse,
// zero-initialized array split into pages of a power-of-two size. A page
// exists only once a block has written into it, and a page no block wrote
// reads as zero, exactly like the make-zeroed array it replaces. A sampled
// launch (gpusim.LaunchOptions.MaxSimBlocks) therefore pays for the pages
// of the blocks it simulates; a full-grid launch uses the same store and
// ends up holding every page it wrote.
//
// A kernel chooses the layout of its index space: 2-D outputs are indexed
// tile-major, so one block's tile is one page and the block moves whole
// tile rows through page and writable instead of paying a lookup per cell.
// A nil store (before Plan, after Release) reads as all zeros.
type paged[T int32 | uint32 | float32] struct {
	shift uint
	pages map[int][]T
}

// newPaged returns an empty store with pages of pageSize elements (a power
// of two).
func newPaged[T int32 | uint32 | float32](pageSize int) *paged[T] {
	return &paged[T]{shift: uint(bits.TrailingZeros(uint(pageSize))), pages: make(map[int][]T)}
}

// page returns page k for reading, or nil when no block has written into
// it (every element of a nil page reads as zero).
func (p *paged[T]) page(k int) []T {
	if p == nil {
		return nil
	}
	return p.pages[k]
}

// writable returns page k for writing, allocating it zeroed on first use.
func (p *paged[T]) writable(k int) []T {
	pg := p.pages[k]
	if pg == nil {
		pg = make([]T, 1<<p.shift)
		p.pages[k] = pg
	}
	return pg
}

// at returns element i.
func (p *paged[T]) at(i int) T {
	if p != nil {
		if pg := p.pages[i>>p.shift]; pg != nil {
			return pg[i&(1<<p.shift-1)]
		}
	}
	return 0
}

// set stores v at element i.
func (p *paged[T]) set(i int, v T) { p.writable(i >> p.shift)[i&(1<<p.shift-1)] = v }

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
