package gpusim

import (
	"math"
	"testing"
)

// poolProbeKernel keeps its shared array itself, as every kernel does: it
// allocates it once, clears it at block start, and writes it across
// barrier phases next to global loads and arithmetic, so a launch
// exercises the whole pooled block workspace.
func poolProbeKernel() KernelFunc {
	f := make([]float32, 64)
	return func(b *Block) {
		clear(f)
		b.Sync()
		bx, _ := b.BlockIdx()
		b.ForEachWarp(func(w *Warp) {
			f[w.WarpID()] += float32(bx + 1)
			var addrs [WarpSize]uint64
			for l := 0; l < WarpSize; l++ {
				addrs[l] = uint64(w.LinearTID(l)) * 4
			}
			w.GlobalLoad(FullMask(), &addrs, 4)
			w.FloatOps(FullMask(), 3)
		})
		b.Sync()
	}
}

// TestWorkspacePoolingBitIdentical runs the same launch on a simulator
// whose workspace has already served other launches and on a pristine
// one: every counter, the modeled time, and the energy must agree to the
// last bit. This is the pooling contract — reuse may only change
// allocation counts, never results.
func TestWorkspacePoolingBitIdentical(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	cfg := LaunchConfig{GridDimX: 6, GridDimY: 1, BlockDimX: 128, BlockDimY: 1, RegsPerThread: 16, SharedMemPerBlock: 1024}
	kernel := poolProbeKernel()

	warmed := NewSimulator(d)
	// Dirty the workspace: a bigger launch (more warps) followed by a
	// cache reset, so the second launch starts from the same cache state
	// as a fresh simulator but a well-used workspace.
	big := LaunchConfig{GridDimX: 3, GridDimY: 1, BlockDimX: 256, BlockDimY: 1, RegsPerThread: 16, SharedMemPerBlock: 2048}
	if _, err := warmed.Launch(big, kernel, LaunchOptions{}); err != nil {
		t.Fatal(err)
	}
	warmed.ResetCaches()
	got, err := warmed.Launch(cfg, kernel, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	want, err := NewSimulator(d).Launch(cfg, kernel, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if got.Counters != want.Counters {
		t.Fatalf("counters diverge:\n pooled %+v\n fresh  %+v", got.Counters, want.Counters)
	}
	for _, pair := range [][2]float64{
		{got.Cycles, want.Cycles},
		{got.TimeMS, want.TimeMS},
		{got.EnergyMJ, want.EnergyMJ},
		{got.AvgPowerW, want.AvgPowerW},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("model outputs diverge: %x vs %x",
				math.Float64bits(pair[0]), math.Float64bits(pair[1]))
		}
	}
	if got.Bottleneck != want.Bottleneck {
		t.Fatalf("bottleneck %q vs %q", got.Bottleneck, want.Bottleneck)
	}
}

// streamKernel loads and stores one word per thread at a stride of
// stride words, so launches sweep the L1 and L2 sets and leave both
// caches full of tags that a later run must not see.
func streamKernel(stride uint64) KernelFunc {
	return func(b *Block) {
		bx, _ := b.BlockIdx()
		b.ForEachWarp(func(w *Warp) {
			var addrs [WarpSize]uint64
			for l := 0; l < WarpSize; l++ {
				t := uint64(bx*b.cfg.ThreadsPerBlock() + w.LinearTID(l))
				addrs[l] = t * stride * 4
			}
			w.GlobalLoad(FullMask(), &addrs, 4)
			w.FloatOps(FullMask(), 2)
			for l := range addrs {
				addrs[l] += 1 << 30
			}
			w.GlobalStore(FullMask(), &addrs, 4)
		})
	}
}

// TestSimulatorReuseAcrossRunsBitIdentical is the per-device pooling
// contract the profiler relies on: a simulator that has served other runs
// (dirty caches, a used workspace) and then had its caches reset gives
// every launch of a run the same counters, cycles, time, energy, power,
// breakdown and bottleneck, to the last bit, as a new simulator.
func TestSimulatorReuseAcrossRunsBitIdentical(t *testing.T) {
	type launch struct {
		cfg    LaunchConfig
		kernel KernelFunc
		opts   LaunchOptions
	}
	cfg := func(blocks, threads int) LaunchConfig {
		return LaunchConfig{GridDimX: blocks, GridDimY: 1, BlockDimX: threads, BlockDimY: 1, RegsPerThread: 16, SharedMemPerBlock: 1024}
	}
	other := []launch{
		{cfg(64, 256), streamKernel(33), LaunchOptions{}},
		{cfg(3, 256), poolProbeKernel(), LaunchOptions{}},
		{cfg(512, 128), streamKernel(1), LaunchOptions{MaxSimBlocks: 16}},
	}
	run := []launch{
		{cfg(6, 128), poolProbeKernel(), LaunchOptions{}},
		{cfg(48, 128), streamKernel(5), LaunchOptions{}},
		{cfg(400, 64), streamKernel(1), LaunchOptions{MaxSimBlocks: 8}},
		{cfg(48, 128), streamKernel(5), LaunchOptions{}}, // hits what the run itself cached
	}
	for _, name := range []string{"GTX580", "K20m"} {
		d, err := LookupDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		pooled := NewSimulator(d)
		for _, l := range other {
			if _, err := pooled.Launch(l.cfg, l.kernel, l.opts); err != nil {
				t.Fatal(err)
			}
		}
		pooled.ResetCaches()
		fresh := NewSimulator(d)
		for i, l := range run {
			got, err := pooled.Launch(l.cfg, l.kernel, l.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Launch(l.cfg, l.kernel, l.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Counters != want.Counters || got.Breakdown != want.Breakdown || got.Bottleneck != want.Bottleneck {
				t.Fatalf("%s launch %d: pooled %+v\nfresh %+v", name, i, got, want)
			}
			for _, pair := range [][2]float64{
				{got.Cycles, want.Cycles},
				{got.TimeMS, want.TimeMS},
				{got.EnergyMJ, want.EnergyMJ},
				{got.AvgPowerW, want.AvgPowerW},
				{got.AchievedOccupancy, want.AchievedOccupancy},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("%s launch %d: model outputs diverge: %x vs %x", name, i,
						math.Float64bits(pair[0]), math.Float64bits(pair[1]))
				}
			}
		}
	}
}

func TestPickBlocksEdgeCases(t *testing.T) {
	cases := []struct {
		total, maxSim int
		want          []int
	}{
		{total: 10, maxSim: 1, want: []int{0}},
		{total: 4, maxSim: 4, want: []int{0, 1, 2, 3}},
		{total: 4, maxSim: 9, want: []int{0, 1, 2, 3}},
		{total: 4, maxSim: 0, want: []int{0, 1, 2, 3}},
		{total: 4, maxSim: -1, want: []int{0, 1, 2, 3}},
		{total: 1, maxSim: 1, want: []int{0}},
		{total: 7, maxSim: 3, want: []int{0, 2, 4}},
		{total: 100, maxSim: 3, want: []int{0, 33, 66}},
	}
	for _, c := range cases {
		got := pickBlocks(nil, c.total, c.maxSim)
		if len(got) != len(c.want) {
			t.Errorf("pickBlocks(%d,%d) = %v, want %v", c.total, c.maxSim, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("pickBlocks(%d,%d) = %v, want %v", c.total, c.maxSim, got, c.want)
				break
			}
		}
	}
}

// TestPickBlocksSampleInvariants: for every (total, maxSim) the sample is
// strictly increasing, in range, starts at block 0, and has exactly
// min(total, maxSim) entries — the properties counter scaling relies on.
func TestPickBlocksSampleInvariants(t *testing.T) {
	for total := 1; total <= 40; total++ {
		for maxSim := 1; maxSim <= 40; maxSim++ {
			got := pickBlocks(nil, total, maxSim)
			wantLen := maxSim
			if wantLen > total {
				wantLen = total
			}
			if len(got) != wantLen {
				t.Fatalf("pickBlocks(%d,%d): %d blocks, want %d", total, maxSim, len(got), wantLen)
			}
			if got[0] != 0 {
				t.Fatalf("pickBlocks(%d,%d): first block %d, want 0", total, maxSim, got[0])
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] || got[i] >= total {
					t.Fatalf("pickBlocks(%d,%d): bad sample %v", total, maxSim, got)
				}
			}
		}
	}
}

func TestCountersScaleRounding(t *testing.T) {
	// Scale rounds each count to nearest (half away from zero): the
	// extrapolated totals must be integers without systematic downward
	// bias from truncation.
	c := Counters{InstExecuted: 3, InstIssued: 1, ThreadInstExecuted: 2, DRAMReadBytes: 7}
	c.Scale(1.5)
	if c.InstExecuted != 5 { // 4.5 rounds up
		t.Errorf("InstExecuted = %d, want 5", c.InstExecuted)
	}
	if c.InstIssued != 2 { // 1.5 rounds up
		t.Errorf("InstIssued = %d, want 2", c.InstIssued)
	}
	if c.ThreadInstExecuted != 3 {
		t.Errorf("ThreadInstExecuted = %d, want 3", c.ThreadInstExecuted)
	}
	if c.DRAMReadBytes != 11 { // 10.5 rounds up
		t.Errorf("DRAMReadBytes = %d, want 11", c.DRAMReadBytes)
	}

	// Scaling by exactly 1 is the identity.
	d := Counters{InstExecuted: 41, SharedLoad: 13, SyncCount: 9}
	e := d
	e.Scale(1)
	if d != e {
		t.Errorf("Scale(1) changed counters: %+v vs %+v", d, e)
	}

	// The launch-path ratio total/simulated reconstructs whole-grid
	// counts exactly when per-block counts are uniform.
	f := Counters{GldRequest: 12, L2ReadTransactions: 48} // 3 blocks' worth
	f.Scale(float64(7) / float64(3))                      // extrapolate to 7
	if f.GldRequest != 28 || f.L2ReadTransactions != 112 {
		t.Errorf("uniform extrapolation: %+v, want 28/112", f)
	}

	// Zero counts stay zero for any factor.
	var z Counters
	z.Scale(123.456)
	if z != (Counters{}) {
		t.Errorf("Scale left zero counters nonzero: %+v", z)
	}
}

// TestLaunchAllocatesNothingInSteadyState: once a simulator has served a
// launch of its size, a sampled launch allocates nothing. The counter
// accumulator and the sampled block indices live in the Simulator, the
// result is returned by value, and a GlobalAccess coalesces a base
// alignment only the first time it sees it.
func TestLaunchAllocatesNothingInSteadyState(t *testing.T) {
	for _, name := range []string{"GTX580", "K20m"} {
		d, _ := LookupDevice(name)
		sim := NewSimulator(d)
		var offs [WarpSize]uint64
		for l := range offs {
			offs[l] = 4 * uint64(l)
		}
		a := NewGlobalAccess(FullMask(), &offs, 4)
		kernel := func(b *Block) {
			bx, _ := b.BlockIdx()
			b.ForEachWarp(func(w *Warp) {
				base := uint64(4 * (bx*WarpSize + w.LinearTID(0)))
				w.GlobalLoadAt(a, base)
				w.GlobalStoreAt(a, base+4)
			})
			b.Sync()
		}
		cfg := LaunchConfig{GridDimX: 64, GridDimY: 1, BlockDimX: 64, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := sim.Launch(cfg, kernel, LaunchOptions{MaxSimBlocks: 8}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: a steady-state launch allocates %v objects, want 0", name, allocs)
		}
	}
}
