package kernels

import (
	"math"
	"testing"

	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
)

// runFull profiles a workload with every block simulated and no noise, so
// functional output is complete and counters exact.
func runFull(t *testing.T, device string, w profiler.Workload) *profiler.Profile {
	t.Helper()
	dev, err := gpusim.LookupDevice(device)
	if err != nil {
		t.Fatal(err)
	}
	p := profiler.New(dev, profiler.Options{MaxSimBlocks: 0, NoiseSigma: -1})
	prof, err := p.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestReductionFunctionalAllVariants(t *testing.T) {
	for variant := 0; variant <= 6; variant++ {
		for _, n := range []int{100, 1000, 4096, 70000} {
			r := &Reduction{Variant: variant, N: n, BlockSize: 256, Seed: uint64(variant*1000 + n)}
			runFull(t, "GTX580", r)
			want := CPUReduce(r.Input())
			got := r.Result
			if math.Abs(float64(got-want)) > 1e-3*math.Abs(float64(want))+1e-3 {
				t.Errorf("reduce%d n=%d: got %v, want %v", variant, n, got, want)
			}
		}
	}
}

func TestReductionBlockSizes(t *testing.T) {
	for _, bs := range []int{64, 128, 512, 1024} {
		r := &Reduction{Variant: 6, N: 50000, BlockSize: bs, Seed: 9}
		runFull(t, "GTX580", r)
		want := CPUReduce(r.Input())
		// Tree and sequential float32 sums differ by rounding order.
		if math.Abs(float64(r.Result-want)) > 1e-4*math.Abs(float64(want)) {
			t.Errorf("block size %d: got %v, want %v", bs, r.Result, want)
		}
	}
}

func TestReductionOnKepler(t *testing.T) {
	r := &Reduction{Variant: 2, N: 10000, BlockSize: 256, Seed: 3}
	runFull(t, "K20m", r)
	want := CPUReduce(r.Input())
	if math.Abs(float64(r.Result-want)) > 1e-4*math.Abs(float64(want)) {
		t.Errorf("got %v, want %v", r.Result, want)
	}
}

func TestReductionValidation(t *testing.T) {
	dev, _ := gpusim.LookupDevice("GTX580")
	cases := []*Reduction{
		{Variant: 7, N: 100},
		{Variant: -1, N: 100},
		{Variant: 0, N: 1},
		{Variant: 0, N: 100, BlockSize: 100}, // not a power of two
		{Variant: 0, N: 100, BlockSize: 32},  // below 64
	}
	for i, r := range cases {
		if _, err := r.Plan(dev); err == nil {
			t.Errorf("case %d accepted: %+v", i, r)
		}
	}
}

func TestReductionCounterSignatures(t *testing.T) {
	// The paper's §5 story, mechanistically: reduce0 diverges, reduce1
	// bank-conflicts, reduce2 does neither.
	profile := func(v int) *profiler.Profile {
		return runFull(t, "GTX580", &Reduction{Variant: v, N: 1 << 16, BlockSize: 256, Seed: 1})
	}
	p0 := profile(0)
	p1 := profile(1)
	p2 := profile(2)
	p6 := profile(6)

	if p1.Metrics["shared_replay_overhead"] <= 0 {
		t.Fatal("reduce1 shows no shared-memory replay overhead")
	}
	if p2.Metrics["shared_replay_overhead"] != 0 {
		t.Fatalf("reduce2 shows replay overhead %v", p2.Metrics["shared_replay_overhead"])
	}
	if p0.Metrics["divergent_branch"] <= p1.Metrics["divergent_branch"] {
		t.Fatal("reduce0 should diverge more than reduce1")
	}
	if p6.Metrics["inst_executed"] >= p2.Metrics["inst_executed"] {
		t.Fatal("reduce6 should execute fewer instructions than reduce2")
	}
	// Optimization order holds for the modeled time.
	if !(p0.TimeMS > p1.TimeMS && p1.TimeMS > p2.TimeMS && p2.TimeMS > p6.TimeMS) {
		t.Fatalf("optimization ladder broken: %v %v %v %v",
			p0.TimeMS, p1.TimeMS, p2.TimeMS, p6.TimeMS)
	}
}

func TestMatMulFunctional(t *testing.T) {
	for _, n := range []int{16, 32, 64, 96} {
		m := &MatMul{N: n, Seed: uint64(n)}
		runFull(t, "GTX580", m)
		want, got := CPUMatMul(m.A(), m.B(), n), m.C()
		for i := range want {
			if math.Abs(float64(want[i]-got[i])) > 1e-3 {
				t.Fatalf("n=%d: C[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestMatMulTile32(t *testing.T) {
	m := &MatMul{N: 64, Tile: 32, Seed: 5}
	runFull(t, "GTX580", m)
	want, got := CPUMatMul(m.A(), m.B(), 64), m.C()
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > 1e-3 {
			t.Fatalf("tile 32: C[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMatMulValidation(t *testing.T) {
	dev, _ := gpusim.LookupDevice("GTX580")
	for i, m := range []*MatMul{{N: 0}, {N: 17}, {N: 64, Tile: 8}} {
		if _, err := m.Plan(dev); err == nil {
			t.Errorf("case %d accepted: %+v", i, m)
		}
	}
}

func TestMatMulLoadStoreImbalance(t *testing.T) {
	// b loads per store (the paper's Fig 5 explanation).
	prof := runFull(t, "GTX580", &MatMul{N: 128, Seed: 2})
	ratio := prof.Metrics["gld_request"] / prof.Metrics["gst_request"]
	if ratio < 8 || ratio > 32 {
		t.Fatalf("load/store request ratio %v, want ≈ 2·(n/b) loads per store", ratio)
	}
}

func TestNWFunctional(t *testing.T) {
	for _, n := range []int{16, 48, 128} {
		nw := &NeedlemanWunsch{SeqLen: n, Seed: uint64(n)}
		runFull(t, "GTX580", nw)
		want := nw.CPUNeedlemanWunsch()
		got := nw.Score()
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("n=%d: score[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestNWFunctionalKepler(t *testing.T) {
	nw := &NeedlemanWunsch{SeqLen: 64, Seed: 4}
	runFull(t, "K20m", nw)
	want := nw.CPUNeedlemanWunsch()
	got := nw.Score()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("score[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNWValidation(t *testing.T) {
	dev, _ := gpusim.LookupDevice("GTX580")
	for i, nw := range []*NeedlemanWunsch{{SeqLen: 0}, {SeqLen: 100}} {
		if _, err := nw.Plan(dev); err == nil {
			t.Errorf("case %d accepted: %+v", i, nw)
		}
	}
}

func TestNWLaunchStructure(t *testing.T) {
	dev, _ := gpusim.LookupDevice("GTX580")
	nw := &NeedlemanWunsch{SeqLen: 128, Seed: 1}
	launches, err := nw.Plan(dev)
	if err != nil {
		t.Fatal(err)
	}
	// 2·(n/16) − 1 diagonal strips.
	if want := 2*(128/16) - 1; len(launches) != want {
		t.Fatalf("%d launches, want %d", len(launches), want)
	}
	// Strip i has i blocks, rising then falling.
	if launches[0].Config.GridDimX != 1 || launches[7].Config.GridDimX != 8 {
		t.Fatal("strip block counts wrong")
	}
}

func TestNWCounterSignatures(t *testing.T) {
	prof := runFull(t, "GTX580", &NeedlemanWunsch{SeqLen: 128, Seed: 6})
	if prof.Metrics["l1_shared_bank_conflict"] <= 0 {
		t.Fatal("NW's diagonal shared accesses should conflict (paper §6.1.2)")
	}
	if prof.Metrics["achieved_occupancy"] > 0.2 {
		t.Fatalf("16-thread blocks should give low occupancy, got %v",
			prof.Metrics["achieved_occupancy"])
	}
	if prof.Metrics["warp_execution_efficiency"] > 60 {
		t.Fatalf("half-empty warps should cap efficiency, got %v",
			prof.Metrics["warp_execution_efficiency"])
	}
}

func TestWorkloadCharacteristics(t *testing.T) {
	r := &Reduction{Variant: 1, N: 100, BlockSize: 128}
	c := r.Characteristics()
	if c["size"] != 100 || c["block_size"] != 128 {
		t.Fatalf("reduction characteristics %v", c)
	}
	m := &MatMul{N: 64}
	if m.Characteristics()["size"] != 64 {
		t.Fatal("matmul characteristics wrong")
	}
	nw := &NeedlemanWunsch{SeqLen: 256}
	if nw.Characteristics()["size"] != 256 {
		t.Fatal("nw characteristics wrong")
	}
	if r.Name() != "reduce1" || m.Name() != "matmul" || nw.Name() != "needle" {
		t.Fatal("workload names wrong")
	}
}

func TestSampledCountersApproximateFull(t *testing.T) {
	// Counters from sampled simulation must land near the full run's.
	dev, _ := gpusim.LookupDevice("GTX580")
	full := profiler.New(dev, profiler.Options{MaxSimBlocks: 0, NoiseSigma: -1})
	sampled := profiler.New(dev, profiler.Options{MaxSimBlocks: 8, NoiseSigma: -1})

	pf, err := full.Run(&MatMul{N: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sampled.Run(&MatMul{N: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gld_request", "gst_request", "inst_executed", "shared_load"} {
		rel := math.Abs(pf.Metrics[name]-ps.Metrics[name]) / pf.Metrics[name]
		if rel > 0.05 {
			t.Errorf("%s: sampled %v vs full %v (%.1f%% off)",
				name, ps.Metrics[name], pf.Metrics[name], 100*rel)
		}
	}
}

// mustDevice returns the named device or fails the test.
func mustDevice(t *testing.T, name string) *gpusim.Device {
	t.Helper()
	dev, err := gpusim.LookupDevice(name)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}
