package profiler

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"blackforest/internal/faults"
)

// chaosBatch builds a deterministic batch of fake workloads for fault
// tests (fresh values each call, so RunAll can be replayed).
func chaosBatch() []Workload {
	var runs []Workload
	for i := 0; i < 12; i++ {
		runs = append(runs, &fakeWorkload{
			name: "fake", launches: 1 + i%3, ops: 20 + 10*i, size: float64(i + 1),
		})
	}
	return runs
}

func TestChaosRunFailureDeterministic(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 21, RunFailure: 0.5})
	p := New(device(t), Options{Seed: 4, Faults: inj})
	failed := func() []bool {
		var out []bool
		for _, w := range chaosBatch() {
			_, err := p.Run(w)
			if err != nil && !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("unexpected non-injected error: %v", err)
			}
			out = append(out, err != nil)
		}
		return out
	}
	a, b := failed(), failed()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("failure pattern not reproducible: %v vs %v", a, b)
	}
	any := false
	for _, f := range a {
		any = any || f
	}
	if !any {
		t.Fatal("runfail=0.5 over 12 runs injected nothing")
	}
}

func TestChaosRetryRecoversAndMatchesFaultFree(t *testing.T) {
	clean, err := New(device(t), Options{Seed: 4, Gate: NewGate(4)}).RunAll(chaosBatch())
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 21, RunFailure: 0.5})
	p := New(device(t), Options{Seed: 4, Faults: inj, Retries: 12, Gate: NewGate(4)})
	got, err := p.RunAll(chaosBatch())
	if err != nil {
		t.Fatalf("RunAll with retries did not recover: %v", err)
	}
	// A run that eventually succeeds is profiled identically to the
	// fault-free run: the attempt number enters only the failure draw.
	if !reflect.DeepEqual(clean, got) {
		t.Fatal("recovered profiles differ from fault-free profiles")
	}
}

func TestChaosRetriesExhausted(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 1, RunFailure: 1})
	p := New(device(t), Options{Seed: 4, Faults: inj, Retries: 3, Gate: NewGate(2)})
	_, err := p.RunAll(chaosBatch())
	if err == nil {
		t.Fatal("runfail=1 succeeded")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error does not wrap ErrInjected: %v", err)
	}
}

func TestChaosRetriesReleaseEveryAttempt(t *testing.T) {
	w := &trackedWorkload{fakeWorkload: fakeWorkload{name: "fail", launches: 1, ops: 20, size: 1}}
	inj := faults.New(faults.Config{Seed: 1, RunFailure: 1})
	p := New(device(t), Options{Seed: 4, Faults: inj, Retries: 2, Gate: NewGate(1)})
	if _, err := p.RunAll([]Workload{w}); err == nil {
		t.Fatal("runfail=1 succeeded")
	}
	if w.released != 3 {
		t.Fatalf("released %d times, want 3 (one per attempt)", w.released)
	}
}

func TestChaosDropoutRecorded(t *testing.T) {
	clean, err := New(device(t), Options{Seed: 4}).Run(&fakeWorkload{name: "fake", launches: 2, ops: 50, size: 3})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 8, CounterDropout: 0.3})
	p := New(device(t), Options{Seed: 4, Faults: inj})
	prof, err := p.Run(&fakeWorkload{name: "fake", launches: 2, ops: 50, size: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Dropped) == 0 {
		t.Fatal("dropout=0.3 dropped nothing")
	}
	if !sort.StringsAreSorted(prof.Dropped) {
		t.Fatalf("Dropped not sorted: %v", prof.Dropped)
	}
	for _, name := range prof.Dropped {
		if _, ok := prof.Metrics[name]; ok {
			t.Fatalf("dropped metric %q still present", name)
		}
		if _, ok := clean.Metrics[name]; !ok {
			t.Fatalf("dropped metric %q was never collected", name)
		}
	}
	if len(prof.Metrics)+len(prof.Dropped) != len(clean.Metrics) {
		t.Fatalf("metrics %d + dropped %d != clean %d",
			len(prof.Metrics), len(prof.Dropped), len(clean.Metrics))
	}
	// Surviving metrics are bit-identical to the fault-free run.
	for name, v := range prof.Metrics {
		if clean.Metrics[name] != v {
			t.Fatalf("surviving metric %q changed: %v vs %v", name, v, clean.Metrics[name])
		}
	}
}

func TestChaosFaultsOffBitIdentical(t *testing.T) {
	base, err := New(device(t), Options{Seed: 4, Gate: NewGate(4)}).RunAll(chaosBatch())
	if err != nil {
		t.Fatal(err)
	}
	// A disabled config yields a nil injector; threading it through must
	// not perturb anything.
	inj := faults.New(faults.Config{Seed: 999})
	got, err := New(device(t), Options{Seed: 4, Faults: inj, Retries: 5, Gate: NewGate(4)}).RunAll(chaosBatch())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatal("faults-off profiling differs from baseline")
	}
}
