package kernels

import (
	"fmt"
	"math"
	"testing"

	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
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

func TestNeedleMatchesOracle(t *testing.T) {
	for _, devName := range []string{"GTX580", "K20m"} {
		dev, err := gpusim.LookupDevice(devName)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{16, 64, 256, 512} {
			for _, maxSim := range []int{0, 8} {
				name := fmt.Sprintf("needle n=%d on %s, maxSim %d", n, devName, maxSim)
				got := &NeedlemanWunsch{SeqLen: n, Seed: uint64(n)}
				want := &NeedlemanWunsch{SeqLen: n, Seed: uint64(n)}
				launches, err := got.Plan(dev)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := want.Plan(dev); err != nil {
					t.Fatal(err)
				}
				// Plan's launch order: strips 1..w from the top-left, then
				// w-1..1 toward the bottom-right.
				bw := n / nwBlock
				var oracle []gpusim.KernelFunc
				for i := 1; i <= bw; i++ {
					oracle = append(oracle, want.oracleKernel(i, bw, true))
				}
				for i := bw - 1; i >= 1; i-- {
					oracle = append(oracle, want.oracleKernel(i, bw, false))
				}
				diffLaunches(t, name, dev, launches, oracle, maxSim)
				gs, ws := got.Score(), want.Score()
				for i := range ws {
					if gs[i] != ws[i] {
						t.Fatalf("%s: score[%d] = %d, oracle %d", name, i, gs[i], ws[i])
					}
				}
			}
		}
	}
}

// TestMatMulMatchesOracle covers tile × unroll × n × device × sampling.
// Fully simulating n=256 costs 16× n=64 (far more under -race) and the
// unroll factor only adds loop-control ops that every n=64 case already
// checks, so n=256 is fully simulated at the default unroll only.
func TestMatMulMatchesOracle(t *testing.T) {
	for _, devName := range []string{"GTX580", "K20m"} {
		dev, err := gpusim.LookupDevice(devName)
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range []int{16, 32} {
			for _, unroll := range []int{0, 1, 4} {
				for _, n := range []int{64, 256} {
					for _, maxSim := range []int{0, 8} {
						if n == 256 && maxSim == 0 && unroll != 0 {
							continue
						}
						name := fmt.Sprintf("matmul n=%d tile %d unroll %d on %s, maxSim %d", n, tile, unroll, devName, maxSim)
						got := &MatMul{N: n, Tile: tile, Unroll: unroll, Seed: uint64(n + tile)}
						want := &MatMul{N: n, Tile: tile, Unroll: unroll, Seed: uint64(n + tile)}
						launches, err := got.Plan(dev)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := want.Plan(dev); err != nil {
							t.Fatal(err)
						}
						diffLaunches(t, name, dev, launches, []gpusim.KernelFunc{want.oracleKernel()}, maxSim)
						gc, wc := got.C(), want.C()
						for i := range wc {
							if math.Float32bits(gc[i]) != math.Float32bits(wc[i]) {
								t.Fatalf("%s: C[%d] = %v, oracle %v", name, i, gc[i], wc[i])
							}
						}
					}
				}
			}
		}
	}
}
