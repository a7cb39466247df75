// Package kernels ports the paper's benchmark kernels to the gpusim SIMT
// API: the CUDA SDK parallel-reduction family (reduce0–reduce6), the CUDA
// SDK tiled matrix multiply, and the Rodinia Needleman-Wunsch sequence
// aligner. Each workload computes functionally correct results (the tests
// check them against sequential CPU references) while the simulator accounts
// the memory-system and instruction events behind the paper's counters.
package kernels

import (
	"blackforest/internal/gpusim"
	"blackforest/internal/stats"
)

// Address-space bases keep the synthetic byte addresses of distinct
// buffers from aliasing in the cache models. Each buffer gets a 1 GiB
// region, far larger than any modeled working set.
const (
	regionSize = 1 << 30
	baseInput  = 1 * regionSize
	baseOutput = 2 * regionSize
	baseA      = 3 * regionSize
	baseB      = 4 * regionSize
	baseC      = 5 * regionSize
	baseScore  = 6 * regionSize
	baseRef    = 7 * regionSize
	basePong   = 8 * regionSize
)

// laneInts precomputes per-lane int values from a function of the lane.
func laneInts(f func(lane int) int) [gpusim.WarpSize]int {
	var out [gpusim.WarpSize]int
	for lane := range out {
		out[lane] = f(lane)
	}
	return out
}

// addrs4 builds per-lane byte addresses base + 4·idx[lane].
func addrs4(base uint64, idx *[gpusim.WarpSize]int) [gpusim.WarpSize]uint64 {
	var out [gpusim.WarpSize]uint64
	for lane := range out {
		out[lane] = base + 4*uint64(idx[lane])
	}
	return out
}

// sharedAt precomputes a warp's shared-memory access by the lanes in mask
// to the 4-byte words word(lane), on dev's banks.
func sharedAt(dev *gpusim.Device, mask gpusim.Mask, word func(lane int) int) gpusim.SharedAccess {
	var offs [gpusim.WarpSize]uint32
	for lane := range offs {
		offs[lane] = uint32(4 * word(lane))
	}
	return gpusim.NewSharedAccess(dev, mask, &offs)
}

// offs4 builds per-lane shared-memory byte offsets 4·word[lane].
func offs4(word *[gpusim.WarpSize]int) [gpusim.WarpSize]uint32 {
	var out [gpusim.WarpSize]uint32
	for lane := range out {
		out[lane] = uint32(4 * word[lane])
	}
	return out
}

// randomF32 returns a deterministic pseudo-random float32 in [0, 1).
func randomF32(seed, i uint64) float32 {
	return float32(stats.SplitMix64(seed^i*0x9e3779b97f4a7c15)>>40) / float32(1<<24)
}

// randomI32 returns a deterministic pseudo-random int32 in [0, n).
func randomI32(seed, i uint64, n int32) int32 {
	return int32(stats.SplitMix64(seed+i) % uint64(n))
}
