package gpusim

import "math/bits"

// This file models the memory subsystem: set-associative LRU caches and
// the warp-level access coalescer. Together they produce the transaction
// and hit/miss events behind the paper's memory counters.

// cache is a set-associative cache with LRU replacement, tracking only tags
// (the simulator moves no data — kernels compute on ordinary Go memory).
// Line sizes are always powers of two, so the line index is a shift; set
// counts often are not (a 1.5 MB L2 has 3072 sets), so set selection keeps
// a modulo fallback beside the fast mask path. The tags live in one flat
// array, so a cache is two allocations for its lifetime and reset only
// clears the fill counts.
type cache struct {
	tags      []uint64 // numSets × ways; set s holds tags[s·ways:][:fill[s]], MRU first
	fill      []int32  // valid ways per set
	ways      int
	lineSize  uint64
	lineShift uint
	numSets   uint64
	setMask   uint64 // numSets-1 when numSets is a power of two, else 0
	accesses  uint64
	misses    uint64
}

// newCache builds a cache of the given total size, line size, and
// associativity. Sizes that do not divide evenly are rounded down to at
// least one set. lineSize must be a power of two.
func newCache(sizeBytes, lineSize, ways int) *cache {
	numSets := sizeBytes / (lineSize * ways)
	if numSets < 1 {
		numSets = 1
	}
	c := &cache{
		tags:      make([]uint64, numSets*ways),
		fill:      make([]int32, numSets),
		ways:      ways,
		lineSize:  uint64(lineSize),
		lineShift: uint(bits.TrailingZeros64(uint64(lineSize))),
		numSets:   uint64(numSets),
	}
	if numSets&(numSets-1) == 0 {
		c.setMask = uint64(numSets - 1)
	}
	return c
}

// access looks up the line containing addr, inserting it on a miss.
// It reports whether the access hit.
func (c *cache) access(addr uint64) bool {
	c.accesses++
	line := addr >> c.lineShift
	var set uint64
	if c.setMask != 0 {
		set = line & c.setMask
	} else {
		set = line % c.numSets
	}
	n := c.fill[set]
	ways := c.tags[int(set)*c.ways:][:n]
	for i, tag := range ways {
		if tag == line {
			// Move to MRU position.
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			return true
		}
	}
	c.misses++
	if int(n) < c.ways {
		n++
		c.fill[set] = n
		ways = ways[:n]
	}
	// Insert at MRU; a full set drops its LRU tag off the end.
	copy(ways[1:], ways)
	ways[0] = line
	return false
}

// reset clears all cache contents and statistics.
func (c *cache) reset() {
	clear(c.fill)
	c.accesses, c.misses = 0, 0
}

// coalesce appends the unique aligned segments of the given size touched
// by the active lanes' byte addresses to buf (reused by the caller to avoid
// allocation) and returns it. It is the heart of the memory-access-pattern
// counters: a fully coalesced warp access to 4-byte words touches
// ⌈32·4/segment⌉ segments; a strided or scattered access touches up to 32.
func coalesce(buf []uint64, mask Mask, addrs *[WarpSize]uint64, accessBytes uint32, segment uint64) []uint64 {
	shift := uint(bits.TrailingZeros64(segment)) // segment is 32 or 128
	segs := buf[:0]
	for rem := uint32(mask); rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem) // lanes in increasing order
		first := addrs[lane] >> shift
		last := (addrs[lane] + uint64(accessBytes) - 1) >> shift
		for s := first; s <= last; s++ {
			found := false
			for _, x := range segs {
				if x == s {
					found = true
					break
				}
			}
			if !found {
				segs = append(segs, s)
			}
		}
	}
	for i := range segs {
		segs[i] <<= shift
	}
	return segs
}

// spanCount returns the number of distinct 128-byte spans holding the
// 32-byte segments segs (as coalesce returns them) — what coalescing the
// same access at 128 bytes would count, since a span is touched exactly
// when one of its segments is.
func spanCount(segs []uint64) int {
	n := 0
next:
	for i, s := range segs {
		for _, p := range segs[:i] {
			if p>>7 == s>>7 {
				continue next
			}
		}
		n++
	}
	return n
}

// bankConflictDegree returns the maximum number of distinct 4-byte words
// mapped to the same shared-memory bank among active lanes — the number of
// serialized passes the access needs. Lanes reading the same word broadcast
// and do not conflict. degree 1 means conflict-free.
// bankScratch is reusable working storage for bankConflictDegree, kept on
// the Block so the per-bank word lists need no zeroing per instruction
// (only the 64-byte count array is reset).
type bankScratch struct {
	words  [64][WarpSize]uint32
	counts [64]uint8
}

func bankConflictDegree(s *bankScratch, mask Mask, offsets *[WarpSize]uint32, banks int) int {
	if banks <= 0 || banks > 64 {
		return 1
	}
	// Distinct words per bank; duplicates (broadcasts) are detected by
	// scanning only the words already filed under the same bank.
	s.counts = [64]uint8{}
	degree := 1
	bankMask := uint32(0)
	if banks&(banks-1) == 0 {
		bankMask = uint32(banks - 1) // every modeled device has 16 or 32 banks
	}
	for rem := uint32(mask); rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		word := offsets[lane] >> 2
		var bank uint32
		if bankMask != 0 {
			bank = word & bankMask
		} else {
			bank = word % uint32(banks)
		}
		dup := false
		for i := uint8(0); i < s.counts[bank]; i++ {
			if s.words[bank][i] == word {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		s.words[bank][s.counts[bank]] = word
		s.counts[bank]++
		if int(s.counts[bank]) > degree {
			degree = int(s.counts[bank])
		}
	}
	return degree
}
