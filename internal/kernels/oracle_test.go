package kernels

import (
	"fmt"
	"math"
	"testing"

	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
	"blackforest/internal/stats"
)

// diffLaunches runs got's launches and the oracle kernels on fresh
// simulators of one device, launch by launch, and requires every
// per-launch result the profiler reads to be equal.
func diffLaunches(t *testing.T, name string, dev *gpusim.Device, got []profiler.Launch, oracle []gpusim.KernelFunc, maxSim int) {
	t.Helper()
	if len(got) != len(oracle) {
		t.Fatalf("%s: %d launches, oracle has %d", name, len(got), len(oracle))
	}
	opts := gpusim.LaunchOptions{MaxSimBlocks: maxSim}
	simGot, simWant := gpusim.NewSimulator(dev), gpusim.NewSimulator(dev)
	for i, l := range got {
		g, err := simGot.Launch(l.Config, l.Kernel, opts)
		if err != nil {
			t.Fatalf("%s launch %d: %v", name, i, err)
		}
		w, err := simWant.Launch(l.Config, oracle[i], opts)
		if err != nil {
			t.Fatalf("%s oracle launch %d: %v", name, i, err)
		}
		if g.Counters != w.Counters {
			t.Fatalf("%s launch %d (%s): counters\n got %+v\nwant %+v", name, i, l.Label, g.Counters, w.Counters)
		}
		if g.Cycles != w.Cycles || g.TimeMS != w.TimeMS || g.EnergyMJ != w.EnergyMJ ||
			g.Bottleneck != w.Bottleneck || g.Breakdown != w.Breakdown {
			t.Fatalf("%s launch %d (%s): timing differs: got %v cycles %+v, want %v cycles %+v",
				name, i, l.Label, g.Cycles, g.Breakdown, w.Cycles, w.Breakdown)
		}
	}
}

// plan plans w on dev, failing the test on error.
func plan(t *testing.T, w profiler.Workload, dev *gpusim.Device) []profiler.Launch {
	t.Helper()
	launches, err := w.Plan(dev)
	if err != nil {
		t.Fatal(err)
	}
	return launches
}

// sameBits requires got and want to be equal element by element, as bits.
func sameBits[T float32 | int32 | uint32](t *testing.T, name, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d elements, oracle %d", name, what, len(got), len(want))
	}
	for i := range want {
		g, w := any(got[i]), any(want[i])
		if gf, ok := g.(float32); ok {
			g, w = math.Float32bits(gf), math.Float32bits(w.(float32))
		}
		if g != w {
			t.Fatalf("%s: %s[%d] = %v, oracle %v", name, what, i, got[i], want[i])
		}
	}
}

// forDevices runs f on both modeled device generations.
func forDevices(t *testing.T, f func(dev *gpusim.Device)) {
	for _, name := range []string{"GTX580", "K20m"} {
		dev, err := gpusim.LookupDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		f(dev)
	}
}

// oracleF32 materializes an n-element float32 input the way the
// pre-change Plans did.
func oracleF32(n int, seed uint64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = randomF32(seed, uint64(i))
	}
	return out
}

// oracleNeedleArrays builds what needle's pre-change Plan materialized:
// the two 1-based sequences and the (n+1)×(n+1) score matrix with its
// −index·penalty border. Plan must have run (it fills the penalty).
func oracleNeedleArrays(nw *NeedlemanWunsch) (seq1, seq2, score []int32) {
	cols := nw.SeqLen + 1
	seq1 = make([]int32, cols)
	seq2 = make([]int32, cols)
	for i := 1; i < cols; i++ {
		seq1[i] = randomI32(nw.Seed, uint64(i), nwAlphabet)
		seq2[i] = randomI32(nw.Seed^0x5e92, uint64(i), nwAlphabet)
	}
	score = make([]int32, cols*cols)
	for i := 0; i < cols; i++ {
		score[i*cols] = int32(-i) * nw.Penalty
		score[i] = int32(-i) * nw.Penalty
	}
	return seq1, seq2, score
}

func TestNeedleMatchesOracle(t *testing.T) {
	forDevices(t, func(dev *gpusim.Device) {
		for _, n := range []int{16, 64, 256, 512} {
			for _, maxSim := range []int{0, 8} {
				name := fmt.Sprintf("needle n=%d on %s, maxSim %d", n, dev.Name, maxSim)
				got := &NeedlemanWunsch{SeqLen: n, Seed: uint64(n)}
				launches := plan(t, got, dev)
				seq1, seq2, score := oracleNeedleArrays(got)
				shared := new(nwShared)
				// Plan's launch order: strips 1..w from the top-left, then
				// w-1..1 toward the bottom-right.
				bw := n / nwBlock
				var oracle []gpusim.KernelFunc
				for i := 1; i <= bw; i++ {
					oracle = append(oracle, got.oracleKernel(seq1, seq2, score, shared, i, bw, true))
				}
				for i := bw - 1; i >= 1; i-- {
					oracle = append(oracle, got.oracleKernel(seq1, seq2, score, shared, i, bw, false))
				}
				diffLaunches(t, name, dev, launches, oracle, maxSim)
				sameBits(t, name, "score", got.Score(), score)
			}
		}
	})
}

// TestMatMulMatchesOracle covers tile × unroll × n × device × sampling.
// Fully simulating n=256 costs 16× n=64 (far more under -race) and the
// unroll factor only adds loop-control ops that every n=64 case already
// checks, so n=256 is fully simulated at the default unroll only.
func TestMatMulMatchesOracle(t *testing.T) {
	forDevices(t, func(dev *gpusim.Device) {
		for _, tile := range []int{16, 32} {
			for _, unroll := range []int{0, 1, 4} {
				for _, n := range []int{64, 256} {
					for _, maxSim := range []int{0, 8} {
						if n == 256 && maxSim == 0 && unroll != 0 {
							continue
						}
						name := fmt.Sprintf("matmul n=%d tile %d unroll %d on %s, maxSim %d", n, tile, unroll, dev.Name, maxSim)
						got := &MatMul{N: n, Tile: tile, Unroll: unroll, Seed: uint64(n + tile)}
						launches := plan(t, got, dev)
						c := make([]float32, n*n)
						oracle := got.oracleKernel(oracleF32(n*n, got.Seed), oracleF32(n*n, got.Seed^0xb), c)
						diffLaunches(t, name, dev, launches, []gpusim.KernelFunc{oracle}, maxSim)
						sameBits(t, name, "C", got.C(), c)
					}
				}
			}
		}
	})
}

// oracleReductionPlan is the pre-change Plan's launch sequence: the input
// materialized, partial sums in make-zeroed ping-pong arrays sized for the
// first launch. result reads the value the last launch wrote.
func oracleReductionPlan(r *Reduction) (kernels []gpusim.KernelFunc, result func() float32) {
	input := oracleF32(r.N, r.Seed)
	ping := make([]float32, max(1, blocksFor(r.Variant, r.N, r.BlockSize, r.MaxBlocks)))
	pong := make([]float32, len(ping))
	sdata := make([]float32, r.BlockSize)
	src, dst := input, ping
	srcBase, dstBase := uint64(baseInput), uint64(baseOutput)
	for count := r.N; count > 1; {
		nextDst, nextDstBase := pong, uint64(basePong)
		if &dst[0] == &pong[0] {
			nextDst, nextDstBase = ping, baseOutput
		}
		kernels = append(kernels, oracleReduceKernel(r.Variant, src, dst, sdata, count, srcBase, dstBase))
		src, dst = dst, nextDst
		srcBase, dstBase = dstBase, nextDstBase
		count = blocksFor(r.Variant, count, r.BlockSize, r.MaxBlocks)
	}
	return kernels, func() float32 { return src[0] }
}

// TestReductionMatchesOracle covers every variant, full and sampled. The
// sampled 2^20-element cases run four or more launches, so a launch reads
// ping-pong partials that an earlier launch (not the previous one) left
// behind — the store must keep exactly what the arrays kept.
func TestReductionMatchesOracle(t *testing.T) {
	forDevices(t, func(dev *gpusim.Device) {
		for v := 0; v <= 6; v++ {
			for _, c := range []struct{ n, bs, maxSim int }{
				{10000, 256, 0}, {10000, 256, 8}, {1 << 20, 64, 8}, {1 << 20, 256, 8},
			} {
				name := fmt.Sprintf("reduce%d n=%d bs=%d on %s, maxSim %d", v, c.n, c.bs, dev.Name, c.maxSim)
				got := &Reduction{Variant: v, N: c.n, BlockSize: c.bs, Seed: uint64(v + c.n)}
				launches := plan(t, got, dev)
				oracle, result := oracleReductionPlan(got)
				diffLaunches(t, name, dev, launches, oracle, c.maxSim)
				sameBits(t, name, "result", []float32{got.Result}, []float32{result()})
			}
		}
	})
}

func TestTransposeMatchesOracle(t *testing.T) {
	forDevices(t, func(dev *gpusim.Device) {
		for v := 0; v <= 2; v++ {
			for _, c := range []struct{ n, rows, maxSim int }{
				{64, 8, 0}, {64, 4, 0}, {256, 8, 8}, {256, 32, 8},
			} {
				name := fmt.Sprintf("transpose%d n=%d rows=%d on %s, maxSim %d", v, c.n, c.rows, dev.Name, c.maxSim)
				got := &Transpose{Variant: v, N: c.n, Rows: c.rows, Seed: uint64(v + c.n)}
				launches := plan(t, got, dev)
				out := make([]float32, c.n*c.n)
				oracle := oracleTransposeKernel(got, oracleF32(c.n*c.n, got.Seed), out)
				diffLaunches(t, name, dev, launches, []gpusim.KernelFunc{oracle}, c.maxSim)
				sameBits(t, name, "out", got.Out(), out)
			}
		}
	})
}

func TestHistogramMatchesOracle(t *testing.T) {
	forDevices(t, func(dev *gpusim.Device) {
		for v := 0; v <= 1; v++ {
			for _, c := range []struct {
				n, maxSim int
				skew      float64
			}{
				{10000, 0, 0.3}, {1 << 18, 8, 0}, {1 << 18, 8, 0.9},
			} {
				name := fmt.Sprintf("histogram%d n=%d skew %v on %s, maxSim %d", v, c.n, c.skew, dev.Name, c.maxSim)
				got := &Histogram{Variant: v, N: c.n, Skew: c.skew, Seed: uint64(v + c.n)}
				launches := plan(t, got, dev)
				// The pre-change Plan's input generator, verbatim.
				input := make([]uint8, c.n)
				skewCut := uint64(c.skew * float64(1<<24))
				for i := range input {
					r := stats.SplitMix64(got.Seed + uint64(i))
					if r&0xffffff < skewCut {
						input[i] = 0
					} else {
						input[i] = uint8(r >> 24)
					}
				}
				bins := make([]uint32, histBins)
				oracle := oracleHistogramKernel(got, input, bins)
				diffLaunches(t, name, dev, launches, []gpusim.KernelFunc{oracle}, c.maxSim)
				sameBits(t, name, "bins", got.Bins(), bins)
			}
		}
	})
}
