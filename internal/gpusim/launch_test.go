package gpusim

import (
	"slices"
	"testing"
)

// eachWarp wraps a barrier-free warp body as a kernel: one phase over
// every warp of the block.
func eachWarp(body func(w *Warp)) KernelFunc {
	return func(b *Block) { b.ForEachWarp(body) }
}

func TestLaunchRunsEveryWarp(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 4, GridDimY: 2, BlockDimX: 64, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 256}
	seen := make(map[[3]int]bool)
	res, err := sim.Launch(cfg, func(b *Block) {
		bx, by := b.BlockIdx()
		b.ForEachWarp(func(w *Warp) {
			key := [3]int{bx, by, w.WarpID()}
			if seen[key] {
				t.Errorf("warp %v executed twice", key)
			}
			seen[key] = true
			w.IntOps(FullMask(), 1)
		})
	}, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8*2 {
		t.Fatalf("executed %d warps, want 16", len(seen))
	}
	if res.SimulatedBlocks != 8 || res.TotalBlocks != 8 {
		t.Fatalf("blocks %d/%d", res.SimulatedBlocks, res.TotalBlocks)
	}
	if res.Counters.InstExecuted != 16 {
		t.Fatalf("InstExecuted %d, want 16", res.Counters.InstExecuted)
	}
}

func TestBarrierSemantics(t *testing.T) {
	// Producer/consumer across warps: warp 3 writes before the barrier,
	// all warps read after. Under correct barrier scheduling every read
	// observes the write.
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: 128, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	shared := make([]float32, 1)
	ok := true
	_, err := sim.Launch(cfg, func(b *Block) {
		b.ForEachWarp(func(w *Warp) {
			if w.WarpID() == 3 { // a late warp writes
				shared[0] = 42
			}
		})
		b.Sync()
		b.ForEachWarp(func(w *Warp) {
			if shared[0] != 42 {
				ok = false
			}
		})
	}, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a warp passed the barrier before the write")
	}
}

func TestMultipleBarriers(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 2, GridDimY: 1, BlockDimX: 96, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	res, err := sim.Launch(cfg, func(b *Block) {
		for i := 0; i < 5; i++ {
			b.Sync()
		}
	}, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 blocks × 3 warps × 5 syncs.
	if res.Counters.SyncCount != 30 {
		t.Fatalf("SyncCount %d, want 30", res.Counters.SyncCount)
	}
}

func TestKernelPanicBecomesError(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: 64, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	_, err := sim.Launch(cfg, func(b *Block) {
		b.ForEachWarp(func(w *Warp) {
			if w.WarpID() == 1 {
				panic("kernel bug")
			}
		})
		b.Sync() // the barrier warp 1 never reaches
	}, LaunchOptions{})
	if err == nil {
		t.Fatal("panicking kernel reported success")
	}
}

func TestBlockSamplingScalesCounters(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	cfg := LaunchConfig{GridDimX: 64, GridDimY: 1, BlockDimX: 32, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	kernel := eachWarp(func(w *Warp) { w.IntOps(FullMask(), 10) })

	full, err := NewSimulator(d).Launch(cfg, kernel, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := NewSimulator(d).Launch(cfg, kernel, LaunchOptions{MaxSimBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.SimulatedBlocks != 8 {
		t.Fatalf("simulated %d blocks", sampled.SimulatedBlocks)
	}
	// Uniform per-block work: scaling must reproduce the full count.
	if sampled.Counters.InstExecuted != full.Counters.InstExecuted {
		t.Fatalf("scaled InstExecuted %d, full %d",
			sampled.Counters.InstExecuted, full.Counters.InstExecuted)
	}
}

func TestTimingMonotoneInWork(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	mk := func(ops int) KernelFunc {
		return eachWarp(func(w *Warp) { w.FloatOps(FullMask(), ops) })
	}
	cfg := LaunchConfig{GridDimX: 32, GridDimY: 1, BlockDimX: 128, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	small, err := sim.Launch(cfg, mk(10), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := sim.Launch(cfg, mk(1000), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if big.TimeMS <= small.TimeMS {
		t.Fatalf("100x work not slower: %v vs %v", big.TimeMS, small.TimeMS)
	}
}

func TestFermiVsKeplerLoadPath(t *testing.T) {
	// The same strided load must hit L1 counters on Fermi and bypass
	// them on Kepler — the paper's §7 counter-evolution issue.
	load := eachWarp(func(w *Warp) {
		var addrs [WarpSize]uint64
		for l := range addrs {
			addrs[l] = uint64(4 * l)
		}
		w.GlobalLoad(FullMask(), &addrs, 4)
	})
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: 32, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}

	fermi, _ := LookupDevice("GTX580")
	rf, err := NewSimulator(fermi).Launch(cfg, load, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rf.Counters.L1GlobalLoadMiss != 1 {
		t.Fatalf("Fermi L1 misses %d, want 1", rf.Counters.L1GlobalLoadMiss)
	}
	if rf.Counters.L2ReadTransactions != 4 {
		t.Fatalf("Fermi L2 reads %d, want 4 (one 128B line)", rf.Counters.L2ReadTransactions)
	}

	kepler, _ := LookupDevice("K20m")
	rk, err := NewSimulator(kepler).Launch(cfg, load, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rk.Counters.L1GlobalLoadMiss != 0 || rk.Counters.L1GlobalLoadHit != 0 {
		t.Fatal("Kepler should not touch L1 global-load counters")
	}
	if rk.Counters.L2ReadTransactions != 4 {
		t.Fatalf("Kepler L2 reads %d, want 4", rk.Counters.L2ReadTransactions)
	}
}

func TestSharedConflictReplaysCounted(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: 32, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 1024}
	res, err := sim.Launch(cfg, eachWarp(func(w *Warp) {
		var offs [WarpSize]uint32
		for l := range offs {
			offs[l] = uint32(8 * l) // stride-2 words → 2-way conflict
		}
		w.SharedLoad(FullMask(), &offs)
	}), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SharedLoadReplay != 1 {
		t.Fatalf("SharedLoadReplay %d, want 1", res.Counters.SharedLoadReplay)
	}
	if res.Counters.InstIssued != res.Counters.InstExecuted+1 {
		t.Fatal("replay not reflected in InstIssued")
	}
}

func TestDivergentBranchCounted(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: 32, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	res, err := sim.Launch(cfg, eachWarp(func(w *Warp) {
		w.Branch(FullMask(), MaskFirstN(16)) // half the warp diverges
		w.Branch(FullMask(), FullMask())     // uniform: no divergence
		w.Branch(FullMask(), 0)              // nobody takes it: no divergence
	}), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Branch != 3 || res.Counters.DivergentBranch != 1 {
		t.Fatalf("branch=%d divergent=%d", res.Counters.Branch, res.Counters.DivergentBranch)
	}
}

func TestGlobalStoreTransactions(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: 32, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	res, err := sim.Launch(cfg, eachWarp(func(w *Warp) {
		var addrs [WarpSize]uint64
		for l := range addrs {
			addrs[l] = uint64(4 * l) // one 128B line
		}
		w.GlobalStore(FullMask(), &addrs, 4)
	}), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.GlobalStoreTransaction != 1 {
		t.Fatalf("store transactions %d, want 1", res.Counters.GlobalStoreTransaction)
	}
	if res.Counters.L2WriteTransactions != 4 {
		t.Fatalf("L2 writes %d, want 4", res.Counters.L2WriteTransactions)
	}
	if res.Counters.GstRequest != 1 || res.Counters.RequestedGstBytes != 128 {
		t.Fatal("store request accounting wrong")
	}
}

func TestValidMaskPartialWarp(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	// 48 threads: warp 0 full, warp 1 half.
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: 48, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	counts := map[int]int{}
	_, err := sim.Launch(cfg, eachWarp(func(w *Warp) {
		counts[w.WarpID()] = w.ValidMask().Count()
	}), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 32 || counts[1] != 16 {
		t.Fatalf("valid masks %v", counts)
	}
}

func TestCountersAddAndScale(t *testing.T) {
	a := Counters{InstExecuted: 10, GldRequest: 4, DRAMReadBytes: 100, SharedLoadReplay: 2}
	b := Counters{InstExecuted: 5, GldRequest: 1, DRAMReadBytes: 28, SharedStoreReplay: 3}
	a.Add(&b)
	if a.InstExecuted != 15 || a.GldRequest != 5 || a.DRAMReadBytes != 128 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.TotalReplays() != 5 {
		t.Fatalf("TotalReplays %d", a.TotalReplays())
	}
	a.Scale(2)
	if a.InstExecuted != 30 || a.DRAMReadBytes != 256 {
		t.Fatalf("Scale wrong: %+v", a)
	}
}

func TestLaunchResultString(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: 32, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	res, err := sim.Launch(cfg, eachWarp(func(w *Warp) { w.IntOps(FullMask(), 1) }), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" || res.Bottleneck == "" {
		t.Fatal("empty result summary")
	}
}

// TestMaxTermTiesBreakByName: the largest term wins, and among equal
// terms the first name in sorted order does.
func TestMaxTermTiesBreakByName(t *testing.T) {
	cases := []struct {
		terms [len(termNames)]float64 // alu, atomics, dram, issue, l2, latency
		want  string
	}{
		{[6]float64{1, 2, 3, 4, 5, 6}, "latency"},
		{[6]float64{0, 0, 7, 7, 0, 0}, "dram"},
		{[6]float64{0, 0, 0, 0, 0, 0}, "alu"},
		{[6]float64{0, 3, 1, 3, 3, 2}, "atomics"},
	}
	for _, c := range cases {
		v, name := maxTerm(&c.terms)
		if name != c.want {
			t.Errorf("maxTerm(%v) = %q, want %q", c.terms, name, c.want)
		}
		if m := slices.Max(c.terms[:]); v != m {
			t.Errorf("maxTerm(%v) value %v, want %v", c.terms, v, m)
		}
	}
}
