package profiler

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"blackforest/internal/gpusim"
)

// fakeWorkload is a minimal Workload for profiler tests.
type fakeWorkload struct {
	name      string
	launches  int
	ops       int
	size      float64
	inputSeed uint64
}

func (f *fakeWorkload) Name() string { return f.name }

func (f *fakeWorkload) Characteristics() map[string]float64 {
	return map[string]float64{"size": f.size}
}

func (f *fakeWorkload) InputSeed() uint64 { return f.inputSeed }

func (f *fakeWorkload) Plan(dev *gpusim.Device) ([]Launch, error) {
	var out []Launch
	for i := 0; i < f.launches; i++ {
		out = append(out, Launch{
			Label: f.name,
			Config: gpusim.LaunchConfig{
				GridDimX: 8, GridDimY: 1, BlockDimX: 64, BlockDimY: 1,
				RegsPerThread: 8, SharedMemPerBlock: 128,
			},
			Kernel: func(b *gpusim.Block) {
				b.ForEachWarp(func(w *gpusim.Warp) {
					w.FloatOps(gpusim.FullMask(), f.ops)
					var addrs [gpusim.WarpSize]uint64
					for l := range addrs {
						addrs[l] = uint64(4 * l)
					}
					w.GlobalLoad(gpusim.FullMask(), &addrs, 4)
				})
			},
		})
	}
	return out, nil
}

func device(t *testing.T) *gpusim.Device {
	t.Helper()
	d, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunProducesMetrics(t *testing.T) {
	p := New(device(t), Options{NoiseSigma: -1})
	prof, err := p.Run(&fakeWorkload{name: "fake", launches: 3, ops: 100, size: 42})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Launches != 3 || prof.Workload != "fake" || prof.Device != "GTX580" {
		t.Fatalf("profile header wrong: %+v", prof)
	}
	if prof.TimeMS <= 0 {
		t.Fatal("non-positive time")
	}
	if prof.Characteristics["size"] != 42 {
		t.Fatal("characteristics not propagated")
	}
	if prof.Metrics["inst_executed"] <= 0 {
		t.Fatal("no instructions derived")
	}
	if prof.DominantBottleneck() == "" {
		t.Fatal("no bottleneck recorded")
	}
	if len(prof.MetricNames()) < 20 {
		t.Fatalf("only %d metrics derived", len(prof.MetricNames()))
	}
}

func TestNoiseReproducibleAndBounded(t *testing.T) {
	mk := func(seed uint64) *Profile {
		p := New(device(t), Options{Seed: seed})
		prof, err := p.Run(&fakeWorkload{name: "fake", launches: 1, ops: 50, size: 1})
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	a, b := mk(5), mk(5)
	if a.TimeMS != b.TimeMS {
		t.Fatal("same seed produced different measured times")
	}
	c := mk(6)
	if a.TimeMS == c.TimeMS {
		t.Fatal("different seeds produced identical noise")
	}
	// Noise is small and multiplicative.
	rel := math.Abs(a.TimeMS-a.ModelTimeMS) / a.ModelTimeMS
	if rel > 0.2 {
		t.Fatalf("noise too large: %v", rel)
	}
}

// trackedWorkload wraps fakeWorkload with Release accounting and an
// optional planning failure, mirroring real workloads (NW) that allocate
// in Plan and must be released even when the run errors.
type trackedWorkload struct {
	fakeWorkload
	failPlan bool
	released int
}

func (w *trackedWorkload) Plan(dev *gpusim.Device) ([]Launch, error) {
	if w.failPlan {
		return nil, errors.New("injected plan failure")
	}
	return w.fakeWorkload.Plan(dev)
}

func (w *trackedWorkload) Release() { w.released++ }

func TestNoiseOrderIndependent(t *testing.T) {
	// A profile must not depend on which runs preceded it: b profiled
	// after a equals b profiled alone on a fresh profiler.
	mkA := func() *fakeWorkload { return &fakeWorkload{name: "a", launches: 1, ops: 30, size: 1} }
	mkB := func() *fakeWorkload { return &fakeWorkload{name: "b", launches: 2, ops: 70, size: 2} }
	p := New(device(t), Options{Seed: 9})
	if _, err := p.Run(mkA()); err != nil {
		t.Fatal(err)
	}
	after, err := p.Run(mkB())
	if err != nil {
		t.Fatal(err)
	}
	alone, err := New(device(t), Options{Seed: 9}).Run(mkB())
	if err != nil {
		t.Fatal(err)
	}
	if after.TimeMS != alone.TimeMS || after.PowerW != alone.PowerW {
		t.Fatalf("profile depends on sweep position: after=%v/%v alone=%v/%v",
			after.TimeMS, after.PowerW, alone.TimeMS, alone.PowerW)
	}
}

func TestInputSeedChangesNoise(t *testing.T) {
	// Two runs identical except for the input seed model repeated sweeps
	// with fresh data: same modeled time, independent noise draws.
	p := New(device(t), Options{Seed: 3})
	a, err := p.Run(&fakeWorkload{name: "fake", launches: 1, ops: 40, size: 8, inputSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Run(&fakeWorkload{name: "fake", launches: 1, ops: 40, size: 8, inputSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.ModelTimeMS != b.ModelTimeMS {
		t.Fatal("input seed changed the modeled time")
	}
	if a.TimeMS == b.TimeMS {
		t.Fatal("distinct input seeds drew identical noise")
	}
}

func TestAveragePowerGuard(t *testing.T) {
	if got := averagePower(10, 2); got != 5 {
		t.Fatalf("averagePower(10, 2) = %v, want 5", got)
	}
	for _, tc := range []struct {
		energy, time float64
	}{
		{10, 0},                   // zero-time run: would divide to +Inf
		{0, 0},                    // 0/0: NaN
		{math.Inf(1), 2},          // degenerate energy
		{math.NaN(), 1},           // NaN propagates
		{10, -1},                  // negative time is as degenerate as zero
		{math.MaxFloat64, 1e-310}, // overflow to +Inf
	} {
		if got := averagePower(tc.energy, tc.time); got != 0 {
			t.Fatalf("averagePower(%v, %v) = %v, want 0", tc.energy, tc.time, got)
		}
	}
}

// runAllWorkloads builds a deterministic mixed batch for RunAll tests.
func runAllWorkloads() []Workload {
	var runs []Workload
	for i := 0; i < 9; i++ {
		runs = append(runs, &fakeWorkload{
			name:      "w" + string(rune('a'+i%3)),
			launches:  1 + i%3,
			ops:       20 + 10*i,
			size:      float64(1 + i),
			inputSeed: uint64(i),
		})
	}
	return runs
}

func TestRunAllMatchesSequential(t *testing.T) {
	p := New(device(t), Options{Seed: 11})
	var want []*Profile
	for _, w := range runAllWorkloads() {
		prof, err := p.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, prof)
	}
	// A nil gate lets RunAll size its own; size 0 selects NumCPU.
	for _, gate := range []Gate{nil, NewGate(0), NewGate(1), NewGate(4), NewGate(32)} {
		got, err := New(device(t), Options{Seed: 11, Gate: gate}).RunAll(runAllWorkloads())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("gate size %d: %d profiles, want %d", gate.Size(), len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("gate size %d: profile %d differs from sequential Run", gate.Size(), i)
			}
		}
	}
}

func TestRunAllOrderIndependent(t *testing.T) {
	p := New(device(t), Options{Seed: 11, Gate: NewGate(4)})
	forward, err := p.RunAll(runAllWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	runs := runAllWorkloads()
	for i, j := 0, len(runs)-1; i < j; i, j = i+1, j-1 {
		runs[i], runs[j] = runs[j], runs[i]
	}
	reversed, err := p.RunAll(runs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range forward {
		if !reflect.DeepEqual(forward[i], reversed[len(reversed)-1-i]) {
			t.Fatalf("profile %d changed under input permutation", i)
		}
	}
}

func TestRunAllReleasesEveryWorkloadAndFirstErrorWins(t *testing.T) {
	mk := func(name string, fail bool) *trackedWorkload {
		return &trackedWorkload{
			fakeWorkload: fakeWorkload{name: name, launches: 1, ops: 20, size: 1},
			failPlan:     fail,
		}
	}
	runs := []*trackedWorkload{
		mk("ok0", false), mk("bad1", true), mk("ok2", false), mk("bad3", true),
	}
	var asWorkloads []Workload
	for _, w := range runs {
		asWorkloads = append(asWorkloads, w)
	}
	p := New(device(t), Options{Seed: 1, Gate: NewGate(2)})
	_, err := p.RunAll(asWorkloads)
	if err == nil {
		t.Fatal("failing run accepted")
	}
	// The earliest failing run in input order is reported, regardless of
	// goroutine completion order.
	if !strings.Contains(err.Error(), "run 1 (bad1)") {
		t.Fatalf("error %q does not name the first failing run", err)
	}
	// Every workload — including both failing ones — was released once.
	for i, w := range runs {
		if w.released != 1 {
			t.Fatalf("workload %d released %d times, want 1", i, w.released)
		}
	}
}

func TestNoNoiseWhenDisabled(t *testing.T) {
	p := New(device(t), Options{NoiseSigma: -1})
	prof, err := p.Run(&fakeWorkload{name: "fake", launches: 1, ops: 50, size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prof.TimeMS != prof.ModelTimeMS {
		t.Fatal("noise applied despite NoiseSigma < 0")
	}
}

func TestRunEmptyPlan(t *testing.T) {
	p := New(device(t), Options{})
	if _, err := p.Run(&fakeWorkload{name: "empty", launches: 0}); err == nil {
		t.Fatal("zero-launch workload accepted")
	}
}

func TestWriteNvprofCSV(t *testing.T) {
	p := New(device(t), Options{NoiseSigma: -1})
	prof, err := p.Run(&fakeWorkload{name: "fake", launches: 1, ops: 10, size: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := prof.WriteNvprofCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "==PROF== device,GTX580") {
		t.Fatal("CSV header missing")
	}
	if !strings.Contains(out, "inst_executed,") {
		t.Fatal("CSV metrics missing")
	}
}
