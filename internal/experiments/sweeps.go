// Package experiments reproduces the paper's evaluation: each table and
// figure has a Run function that executes the corresponding workload sweep,
// drives the BlackForest pipeline, and renders the figure-equivalent
// text/CSV output. cmd/bfbench and the repository's benchmarks are thin
// wrappers over this package.
package experiments

import (
	"blackforest/internal/forest"
	"blackforest/internal/kernels"
	"blackforest/internal/profiler"
)

// Scale selects experiment size.
type Scale int

const (
	// Quick shrinks sweeps and forests for CI and tests.
	Quick Scale = iota
	// Full is the paper-scale configuration.
	Full
)

// Options configures an experiment run.
type Options struct {
	Scale Scale
	Seed  uint64
	// Engine optionally shares a run cache and simulation worker pool
	// across experiments (see Engine). Nil runs the experiment
	// standalone; results are bit-identical either way.
	Engine *Engine
}

// forestConfig returns the forest size for the scale.
func (o Options) forestConfig() forest.Config {
	cfg := forest.DefaultConfig()
	if o.Scale == Quick {
		cfg.NTrees = 120
	}
	return cfg
}

// maxSimBlocks caps per-launch detailed simulation.
func (o Options) maxSimBlocks() int {
	if o.Scale == Quick {
		return 8
	}
	return 16
}

// ReductionSweep builds the §5 data-collection runs for one reduction
// variant: array length and block size are varied jointly (the paper's
// "different problem characteristics", <100 samples).
func ReductionSweep(variant int, o Options) []profiler.Workload {
	sizes := []int{
		1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17,
		1 << 18, 3 << 17, 1 << 19, 3 << 18, 1 << 20, 3 << 19,
		1 << 21, 3 << 20, 1 << 22,
	}
	blockSizes := []int{64, 128, 256, 512}
	if o.Scale == Quick {
		sizes = []int{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}
		blockSizes = []int{128, 256, 512}
	}
	var runs []profiler.Workload
	seed := o.Seed
	for _, bs := range blockSizes {
		for _, n := range sizes {
			seed++
			runs = append(runs, &kernels.Reduction{
				Variant: variant, N: n, BlockSize: bs, Seed: seed,
			})
		}
	}
	return runs
}

// MatMulSweep builds the §6.1.1 runs: matrix sizes 2^5..2^11, repeated
// with fresh inputs for 24 runs total (the paper: "We vary the matrix size
// from 2^5 to 2^11 (i.e., 24 runs)").
func MatMulSweep(o Options) []profiler.Workload {
	sizes := []int{32, 64, 128, 256, 512, 1024, 2048}
	repeats := 3
	extra := 3 // 7·3 + 3 = 24 runs; extras go to the smallest sizes
	if o.Scale == Quick {
		sizes = []int{32, 64, 128, 256, 512}
		repeats = 3
		extra = 0
	}
	var runs []profiler.Workload
	seed := o.Seed
	for r := 0; r < repeats; r++ {
		for _, n := range sizes {
			seed++
			runs = append(runs, &kernels.MatMul{N: n, Seed: seed})
		}
	}
	for i := 0; i < extra; i++ {
		seed++
		runs = append(runs, &kernels.MatMul{N: sizes[i%len(sizes)], Seed: seed})
	}
	return runs
}

// NWSweep builds the §6.1.2 runs: sequence length 64..8192 with a pitch of
// 64 (129 trials) at full scale.
func NWSweep(o Options) []profiler.Workload {
	var lens []int
	if o.Scale == Quick {
		for n := 64; n <= 1024; n += 64 {
			lens = append(lens, n)
		}
	} else {
		for n := 64; n <= 8192; n += 64 {
			lens = append(lens, n)
		}
	}
	var runs []profiler.Workload
	seed := o.Seed
	for _, n := range lens {
		seed++
		runs = append(runs, &kernels.NeedlemanWunsch{SeqLen: n, Seed: seed})
	}
	return runs
}
