package core_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"blackforest/internal/core"
	"blackforest/internal/cpusim"
	"blackforest/internal/dataset"
	"blackforest/internal/experiments"
	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
)

// oracleToFrame is the former row-wise tabulator, kept verbatim as the
// oracle for core.Tabulate on complete batches.
func oracleToFrame(profiles []*profiler.Profile) (*dataset.Frame, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("profiler: no profiles to tabulate")
	}
	first := profiles[0]
	charNames := sortedKeys(first.Characteristics)
	metricNames := sortedKeys(first.Metrics)

	f := dataset.New()
	for _, p := range profiles {
		if p.Device != first.Device {
			return nil, fmt.Errorf("profiler: mixed devices %s and %s in one frame", first.Device, p.Device)
		}
		row := make(map[string]float64, len(charNames)+len(metricNames)+1)
		for _, n := range charNames {
			v, ok := p.Characteristics[n]
			if !ok {
				return nil, fmt.Errorf("profiler: profile missing characteristic %q", n)
			}
			row[n] = v
		}
		for _, n := range metricNames {
			v, ok := p.Metrics[n]
			if !ok {
				return nil, fmt.Errorf("profiler: profile missing metric %q", n)
			}
			row[n] = v
		}
		row["time_ms"] = p.TimeMS
		row["power_w"] = p.PowerW
		if err := f.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// requireTabulateMatchesOracle fails unless core.Tabulate reports a
// complete batch and agrees with the oracle on every column name and
// every cell bit.
func requireTabulateMatchesOracle(t *testing.T, label string, profiles []*profiler.Profile) {
	t.Helper()
	want, err := oracleToFrame(profiles)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	got, deg, err := core.Tabulate(profiles, 0)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if deg != nil {
		t.Fatalf("%s: complete batch reported %s", label, deg)
	}
	wn, gn := want.Names(), got.Names()
	if fmt.Sprint(wn) != fmt.Sprint(gn) {
		t.Fatalf("%s: columns %v, oracle %v", label, gn, wn)
	}
	for _, name := range wn {
		wc, gc := want.MustColumn(name), got.MustColumn(name)
		if len(wc) != len(gc) {
			t.Fatalf("%s: %s has %d rows, oracle %d", label, name, len(gc), len(wc))
		}
		for r := range wc {
			if math.Float64bits(wc[r]) != math.Float64bits(gc[r]) {
				t.Fatalf("%s: %s[%d] = %v, oracle %v", label, name, r, gc[r], wc[r])
			}
		}
	}
}

func TestTabulateMatchesOracleOnQuickSweeps(t *testing.T) {
	o := experiments.Options{Scale: experiments.Quick, Seed: 1}
	sweeps := map[string]func() []profiler.Workload{
		"reduce2": func() []profiler.Workload { return experiments.ReductionSweep(2, o) },
		"matmul":  func() []profiler.Workload { return experiments.MatMulSweep(o) },
		"needle":  func() []profiler.Workload { return experiments.NWSweep(o) },
	}
	for _, devName := range []string{"GTX580", "K20m"} {
		dev, err := gpusim.LookupDevice(devName)
		if err != nil {
			t.Fatal(err)
		}
		p := profiler.New(dev, profiler.Options{MaxSimBlocks: 8, Seed: 1})
		for name, sweep := range sweeps {
			profiles, err := p.RunAll(sweep())
			if err != nil {
				t.Fatal(err)
			}
			requireTabulateMatchesOracle(t, name+"/"+devName, profiles)
		}
	}
}

func TestTabulateMatchesOracleOnCPUProfiles(t *testing.T) {
	cpu, err := cpusim.LookupCPU("XeonE5")
	if err != nil {
		t.Fatal(err)
	}
	p := cpusim.NewProfiler(cpu, 0, 7)
	sweeps := map[string]func(n int) cpusim.Workload{
		"cpu_reduce": func(n int) cpusim.Workload { return &cpusim.CPUReduction{N: n << 10} },
		"cpu_matmul": func(n int) cpusim.Workload { return &cpusim.CPUMatMul{N: n} },
		"cpu_needle": func(n int) cpusim.Workload { return &cpusim.CPUNeedlemanWunsch{SeqLen: n} },
	}
	for name, sweep := range sweeps {
		var profiles []*profiler.Profile
		for n := 64; n <= 1024; n *= 2 {
			prof, err := p.Run(sweep(n))
			if err != nil {
				t.Fatal(err)
			}
			profiles = append(profiles, prof)
		}
		requireTabulateMatchesOracle(t, name, profiles)
	}
}

// TestTabulateSameChecksForEveryBatch: a counter missing without being
// listed in Dropped, or a characteristic set that differs from the first
// profile's, is an error whether or not another run in the batch lost
// counters to dropout.
func TestTabulateSameChecksForEveryBatch(t *testing.T) {
	batch := func(degraded bool) []*profiler.Profile {
		var ps []*profiler.Profile
		for i := 1; i <= 5; i++ {
			x := float64(i)
			ps = append(ps, &profiler.Profile{
				Device:          "GTX580",
				Characteristics: map[string]float64{"size": x},
				Metrics:         map[string]float64{"a": x, "b": x * x},
				TimeMS:          x,
				PowerW:          1,
			})
		}
		if degraded {
			// One run in five lost counter b: 0.8 completeness, imputed.
			delete(ps[0].Metrics, "b")
			ps[0].Dropped = []string{"b"}
		}
		return ps
	}
	for _, degraded := range []bool{false, true} {
		if _, deg, err := core.Tabulate(batch(degraded), 0); err != nil || (deg != nil) != degraded {
			t.Fatalf("degraded=%v: well-formed batch gave degradation %v, error %v", degraded, deg, err)
		}
		corrupt := map[string]func(ps []*profiler.Profile){
			"metric missing without dropout": func(ps []*profiler.Profile) { delete(ps[4].Metrics, "a") },
			"extra characteristic":           func(ps []*profiler.Profile) { ps[4].Characteristics["extra"] = 1 },
			"renamed characteristic": func(ps []*profiler.Profile) {
				ps[4].Characteristics = map[string]float64{"length": 5}
			},
		}
		for name, corrupt := range corrupt {
			ps := batch(degraded)
			corrupt(ps)
			if _, _, err := core.Tabulate(ps, 0); err == nil {
				t.Errorf("degraded=%v: %s accepted", degraded, name)
			}
		}
	}
}
