package cpusim

import (
	"math"
	"testing"

	"blackforest/internal/core"
	"blackforest/internal/forest"
	"blackforest/internal/profiler"
)

func TestLookupCPU(t *testing.T) {
	c, err := LookupCPU("XeonE5")
	if err != nil {
		t.Fatal(err)
	}
	if c.Cores != 16 || c.SIMDWidth != 8 {
		t.Fatalf("XeonE5 model wrong: %+v", c)
	}
	if _, err := LookupCPU("M4Max"); err == nil {
		t.Fatal("unknown CPU accepted")
	}
	c.Cores = 1
	c2, _ := LookupCPU("XeonE5")
	if c2.Cores != 16 {
		t.Fatal("registry mutated")
	}
	if len(CPUNames()) != 2 {
		t.Fatalf("CPUs: %v", CPUNames())
	}
}

func TestCPUProfileBasics(t *testing.T) {
	cpu, _ := LookupCPU("XeonE5")
	p := NewProfiler(cpu, -1, 1)
	prof, err := p.Run(&CPUMatMul{N: 512})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Device != "XeonE5" || prof.TimeMS <= 0 {
		t.Fatalf("profile wrong: %+v", prof)
	}
	if prof.Metrics["instructions"] <= 0 || prof.Metrics["llc_misses"] <= 0 {
		t.Fatal("counters missing")
	}
	if prof.Metrics["ipc"] > cpu.IPCPeak {
		t.Fatalf("ipc %v exceeds peak %v", prof.Metrics["ipc"], cpu.IPCPeak)
	}
	if prof.PowerW < cpu.IdleWatts || prof.PowerW > cpu.IdleWatts+cpu.DynWattsPeak {
		t.Fatalf("power %v implausible", prof.PowerW)
	}
}

func TestCPUTimeScaling(t *testing.T) {
	cpu, _ := LookupCPU("XeonE5")
	p := NewProfiler(cpu, -1, 1)
	t1, _ := p.Run(&CPUMatMul{N: 256})
	t2, _ := p.Run(&CPUMatMul{N: 512})
	// O(n³): doubling n must cost clearly more than 4x.
	if t2.TimeMS < 4*t1.TimeMS {
		t.Fatalf("matmul scaling wrong: %v → %v", t1.TimeMS, t2.TimeMS)
	}
	// More threads must help the reduction.
	one, _ := p.Run(&CPUReduction{N: 1 << 24, Threads: 1})
	all, _ := p.Run(&CPUReduction{N: 1 << 24})
	if all.TimeMS >= one.TimeMS {
		t.Fatalf("parallelism did not help: %v vs %v", all.TimeMS, one.TimeMS)
	}
}

func TestCPUFasterChipWins(t *testing.T) {
	xeon, _ := LookupCPU("XeonE5")
	i7, _ := LookupCPU("CoreI7")
	px := NewProfiler(xeon, -1, 1)
	pi := NewProfiler(i7, -1, 1)
	a, _ := px.Run(&CPUMatMul{N: 1024})
	b, _ := pi.Run(&CPUMatMul{N: 1024})
	if a.TimeMS >= b.TimeMS {
		t.Fatalf("16-core Xeon (%vms) should beat 4-core i7 (%vms) on matmul", a.TimeMS, b.TimeMS)
	}
}

// TestBlackForestOnCPU proves the §7 claim: the unchanged pipeline models
// CPU counter data.
func TestBlackForestOnCPU(t *testing.T) {
	cpu, _ := LookupCPU("XeonE5")
	p := NewProfiler(cpu, 0, 7)
	var profiles []*profiler.Profile
	// CPU workloads carry no input seed, so a repeated size would profile
	// to an exact copy: sweep distinct sizes instead.
	for n := 64; n <= 1024; n += 64 {
		prof, err := p.Run(&CPUMatMul{N: n})
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, prof)
	}
	frame, _, err := core.Tabulate(profiles, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Forest = forest.Config{NTrees: 100}
	cfg.Seed = 3
	a, err := core.Analyze(frame.DropConstantColumns("time_ms", "power_w"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.VarExplained < 0.7 {
		t.Fatalf("BF on CPU data: %%var explained %.2f", a.VarExplained)
	}
	// The problem scaler must work on CPU data too.
	ps, err := core.NewProblemScaler(a, 5, core.AutoModel)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := ps.PredictTime(map[string]float64{"size": 768})
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 {
		t.Fatalf("predicted %v", pred)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(&CPUReduction{N: 0}); err == nil {
		t.Fatal("zero-size reduction accepted")
	}
	if err := Validate(&CPUMatMul{N: 64}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(&CPUNeedlemanWunsch{SeqLen: -1}); err == nil {
		t.Fatal("negative length accepted")
	}
}

// TestCPUProfilesIndependentOfRunOrder: a run's noise comes from its
// workload's identity, not from how many runs the profiler made before,
// so a sweep profiled forward and in reverse gives every workload the
// same time and power, to the bit.
func TestCPUProfilesIndependentOfRunOrder(t *testing.T) {
	cpu, _ := LookupCPU("XeonE5")
	var sweep []Workload
	for n := 64; n <= 1024; n *= 2 {
		sweep = append(sweep, &CPUReduction{N: n * n}, &CPUMatMul{N: n}, &CPUNeedlemanWunsch{SeqLen: 4 * n})
	}
	forward, reverse := NewProfiler(cpu, 0, 7), NewProfiler(cpu, 0, 7)
	want := make([]*profiler.Profile, len(sweep))
	for i, w := range sweep {
		var err error
		if want[i], err = forward.Run(w); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(sweep) - 1; i >= 0; i-- {
		got, err := reverse.Run(sweep[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.TimeMS) != math.Float64bits(want[i].TimeMS) ||
			math.Float64bits(got.PowerW) != math.Float64bits(want[i].PowerW) {
			t.Fatalf("%s %v: time %v power %v, forward sweep %v / %v", sweep[i].Name(),
				sweep[i].Characteristics(), got.TimeMS, got.PowerW, want[i].TimeMS, want[i].PowerW)
		}
	}
}
