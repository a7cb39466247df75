package gpusim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Block execution tests: Block.run drives a kernel's warps phase by
// phase — segment k of warps 0..n-1, then segment k+1 — and turns a
// kernel panic into an error naming the block and warp.

func schedCfg(threads int) LaunchConfig {
	return LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: threads, BlockDimY: 1,
		RegsPerThread: 8, SharedMemPerBlock: 64}
}

func launchOne(t *testing.T, threads int, kernel KernelFunc) error {
	t.Helper()
	d, _ := LookupDevice("GTX580")
	_, err := NewSimulator(d).Launch(schedCfg(threads), kernel, LaunchOptions{})
	return err
}

// TestSchedulerSegmentOrder pins the warp-segment interleaving: phase k
// runs segment k of every warp in warp order.
func TestSchedulerSegmentOrder(t *testing.T) {
	cases := []struct {
		name  string
		warps int
		syncs int // barriers the block executes
		want  string
	}{
		{
			name: "no_barriers", warps: 4, syncs: 0,
			want: "w0s0 w1s0 w2s0 w3s0",
		},
		{
			name: "uniform_two_barriers", warps: 3, syncs: 2,
			want: "w0s0 w1s0 w2s0 w0s1 w1s1 w2s1 w0s2 w1s2 w2s2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var trace []string
			err := launchOne(t, tc.warps*WarpSize, func(b *Block) {
				for seg := 0; ; seg++ {
					b.ForEachWarp(func(w *Warp) {
						trace = append(trace, fmt.Sprintf("w%ds%d", w.WarpID(), seg))
					})
					if seg >= tc.syncs {
						return
					}
					b.Sync()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(trace, " "); got != tc.want {
				t.Fatalf("segment order\ngot:  %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestPanicReportsLowestWarpIndex: when several warps panic, the error
// names the lowest-indexed one — the first to run, which ends the block.
func TestPanicReportsLowestWarpIndex(t *testing.T) {
	err := launchOne(t, 4*WarpSize, eachWarp(func(w *Warp) {
		if w.WarpID() >= 2 {
			panic(fmt.Sprintf("boom %d", w.WarpID()))
		}
	}))
	if err == nil {
		t.Fatal("panicking kernel reported success")
	}
	if !strings.Contains(err.Error(), "warp 2: boom 2") {
		t.Fatalf("error should name warp 2: %v", err)
	}
}

// TestPanicInLaterPhase: a panic after a barrier names the block and warp
// that were running, and leaves the simulator clean — the next launch on
// it is bit-identical to one on a fresh simulator. The panicking kernel
// touches no global memory, so the caches it leaves behind are cold.
func TestPanicInLaterPhase(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 3, GridDimY: 1, BlockDimX: 128, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 1024}
	f := make([]float32, 64)
	_, err := sim.Launch(cfg, func(b *Block) {
		b.ForEachWarp(func(w *Warp) {
			f[w.WarpID()] = 1
			w.IntOps(FullMask(), 1)
		})
		b.Sync()
		bx, _ := b.BlockIdx()
		b.ForEachWarp(func(w *Warp) {
			if bx == 1 && w.WarpID() == 2 {
				panic("late bug")
			}
			w.IntOps(FullMask(), 1)
		})
	}, LaunchOptions{})
	if err == nil || !strings.Contains(err.Error(), "block (1,0) warp 2: late bug") {
		t.Fatalf("want block (1,0) warp 2 panic surfaced, got %v", err)
	}

	kernel := poolProbeKernel()
	got, err := sim.Launch(cfg, kernel, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSimulator(d).Launch(cfg, kernel, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters != want.Counters || math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) {
		t.Fatalf("launch after a panic diverges:\n after %+v\n fresh %+v", got.Counters, want.Counters)
	}
}

// TestPerInstructionAllocs: instruction accounting must not allocate —
// running 100x more instructions through a block may not change the number
// of allocations per launch. This guards the coalescer/bank-conflict
// scratch reuse and the allocation-free instruction methods.
func TestPerInstructionAllocs(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	mk := func(iters int) KernelFunc {
		return eachWarp(func(w *Warp) {
			var addrs [WarpSize]uint64
			var offs [WarpSize]uint32
			for l := 0; l < WarpSize; l++ {
				addrs[l] = uint64(4 * l)
				offs[l] = uint32(4 * l)
			}
			full := FullMask()
			for i := 0; i < iters; i++ {
				w.IntOps(full, 1)
				w.GlobalLoad(full, &addrs, 4)
				w.GlobalStore(full, &addrs, 4)
				w.SharedLoad(full, &offs)
				w.SharedStore(full, &offs)
				w.AtomicGlobalAdd(full, &addrs)
				w.AtomicSharedAdd(full, &offs)
				w.Branch(full, full)
			}
		})
	}
	measure := func(iters int) float64 {
		kernel := mk(iters)
		return testing.AllocsPerRun(20, func() {
			if _, err := sim.Launch(schedCfg(2*WarpSize), kernel, LaunchOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Slack of 2 absorbs stray background allocations; a real per-
	// instruction alloc would differ by thousands (500 iters × 8 instrs).
	small, big := measure(5), measure(500)
	if big > small+2 {
		t.Fatalf("allocations scale with instruction count: %v allocs at 5 iters, %v at 500", small, big)
	}
}

// TestBarrierFreeKernelAllocs: running a warp allocates nothing, with or
// without barriers. The whole launch should stay within a small constant
// allocation budget regardless of warp count.
func TestBarrierFreeKernelAllocs(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	body := func(w *Warp) { w.IntOps(FullMask(), 1) }
	for _, tc := range []struct {
		name   string
		kernel KernelFunc
	}{
		{"barrier-free", eachWarp(body)},
		{"one barrier", func(b *Block) {
			b.ForEachWarp(body)
			b.Sync()
			b.ForEachWarp(body)
		}},
	} {
		name, kernel := tc.name, tc.kernel
		few := testing.AllocsPerRun(20, func() {
			if _, err := sim.Launch(schedCfg(2*WarpSize), kernel, LaunchOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		many := testing.AllocsPerRun(20, func() {
			if _, err := sim.Launch(schedCfg(16*WarpSize), kernel, LaunchOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if many > few+2 {
			t.Fatalf("%s launch allocates per warp: %v allocs at 2 warps, %v at 16", name, few, many)
		}
	}
}
