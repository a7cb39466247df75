package kernels

import (
	"math/bits"
	"sync"
)

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
//
// A workload's Release hands its pages back through release, and the next
// store of the same element type and page size takes them from the free
// list before it allocates, so a sweep reuses the pages of its finished
// runs instead of allocating them again.
type paged[T int32 | uint32 | float32] struct {
	shift uint
	pages map[int][]T
	free  *sync.Pool // of the *freeList of T and this page size
}

// newPaged returns an empty store with pages of pageSize elements (a power
// of two).
func newPaged[T int32 | uint32 | float32](pageSize int) *paged[T] {
	key := freeKey{T(0), pageSize}
	free, ok := freeLists.Load(key)
	if !ok {
		free, _ = freeLists.LoadOrStore(key, new(sync.Pool))
	}
	p := &paged[T]{shift: uint(bits.TrailingZeros(uint(pageSize))), free: free.(*sync.Pool)}
	if l, _ := p.free.Get().(*freeList[T]); l != nil {
		p.pages = l.takeMap()
		p.free.Put(l)
	} else {
		p.pages = make(map[int][]T)
	}
	return p
}

// freeList holds released pages of one element type and page size, and
// the emptied page maps of released stores, for every store of that type
// and size in the process. It lives in a sync.Pool: a store takes it out
// while it takes from or adds to it, so concurrent runs never share one,
// and the pool drops it once garbage collections pass with no store using
// it, so the pages the last runs of a sweep released are freed as garbage
// would be instead of staying in the list. Only release starts a list: a
// store that finds the pool empty while another holds the list allocates
// instead of starting a second list, which would hold pages of its own.
type freeList[T int32 | uint32 | float32] struct {
	pages [][]T
	maps  []map[int][]T
}

// freeLists maps a freeKey to the *sync.Pool of its *freeList.
var freeLists sync.Map

type freeKey struct {
	elem any // the zero value of the element type
	size int // elements per page
}

// maxFreeElems bounds a free list and maxFreeMaps the emptied maps it
// keeps. Pages wait in the list while no run takes them, on top of the
// heap the running workloads use, so the bound trades reuse against peak
// memory: 2^18 elements (1 MiB of 4-byte elements) hold the pages of one
// needle run of length 1024 sampled at 8 blocks per launch.
const (
	maxFreeElems = 1 << 18
	maxFreeMaps  = 4
)

// takePage returns a zeroed page of size elements, reusing a released one
// when the list has it.
func (l *freeList[T]) takePage(size int) []T {
	n := len(l.pages)
	if n == 0 {
		return make([]T, size)
	}
	pg := l.pages[n-1]
	l.pages[n-1] = nil
	l.pages = l.pages[:n-1]
	clear(pg)
	return pg
}

// takeMap returns an empty page map, reusing a released one when the list
// has it.
func (l *freeList[T]) takeMap() map[int][]T {
	n := len(l.maps)
	if n == 0 {
		return make(map[int][]T)
	}
	m := l.maps[n-1]
	l.maps[n-1] = nil
	l.maps = l.maps[:n-1]
	return m
}

// put adds the pages of size elements to the list, up to maxFreeElems,
// and keeps their map, emptied, up to maxFreeMaps.
func (l *freeList[T]) put(size int, pages map[int][]T) {
	for _, pg := range pages {
		if (len(l.pages)+1)*size > maxFreeElems {
			break
		}
		l.pages = append(l.pages, pg)
	}
	if len(l.maps) < maxFreeMaps {
		clear(pages)
		l.maps = append(l.maps, pages)
	}
}

// release hands every page and the page map back to the free list; the
// store must not be used afterwards. A nil store, or one already
// released, has nothing to release.
func (p *paged[T]) release() {
	if p == nil || p.pages == nil {
		return
	}
	l, _ := p.free.Get().(*freeList[T])
	if l == nil {
		l = new(freeList[T])
	}
	l.put(1<<p.shift, p.pages)
	p.free.Put(l)
	p.pages = nil
}

// page returns page k for reading, or nil when no block has written into
// it (every element of a nil page reads as zero).
func (p *paged[T]) page(k int) []T {
	if p == nil {
		return nil
	}
	return p.pages[k]
}

// writable returns page k for writing, zeroed on first use.
func (p *paged[T]) writable(k int) []T {
	pg := p.pages[k]
	if pg == nil {
		if l, _ := p.free.Get().(*freeList[T]); l != nil {
			pg = l.takePage(1 << p.shift)
			p.free.Put(l)
		} else {
			pg = make([]T, 1<<p.shift)
		}
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
