package experiments

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"blackforest/internal/obs"
)

// AcceptedOn counts validated improvements found on one device.
func (s *OptimizerStudy) AcceptedOn(device string) int {
	n := 0
	for _, r := range s.Rows {
		if r.Device == device {
			n += r.Result.Accepted
		}
	}
	return n
}

// TestRunOptimizerQuick: the closed-loop search finds at least one
// validated launch-config improvement on each device model, and the
// report renders every row.
func TestRunOptimizerQuick(t *testing.T) {
	res, err := RunOptimizer(Options{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want 5 kernels × 2 devices", len(res.Rows))
	}
	for _, devName := range []string{trainDevice, targetDevice} {
		if n := res.AcceptedOn(devName); n < 1 {
			t.Errorf("no validated improvement found on %s", devName)
		}
	}
	for _, row := range res.Rows {
		if row.Result.Final.Cycles > row.Result.Baseline.Cycles {
			t.Errorf("%s on %s: final cycles regressed", row.Kernel, row.Device)
		}
		if row.Result.Classification.Regime == "" {
			t.Errorf("%s on %s: no regime", row.Kernel, row.Device)
		}
	}

	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"closed-loop optimizer", "matmul (stock)", "reduce6 (detuned)", "K20m", "validated gain"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunOptimizerSharesEngine: run through a shared engine, the search
// draws every simulation through the engine cache — a second run is
// all hits — and emits optimizer spans on the tracer.
func TestRunOptimizerSharesEngine(t *testing.T) {
	// The clock is called from concurrent worker goroutines' spans.
	var now atomic.Int64
	tracer := obs.NewTracer(func() int64 { return now.Add(1000) })
	eng, err := NewEngine(EngineConfig{Workers: 2, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Scale: Quick, Seed: 1, Engine: eng}
	if _, err := RunOptimizer(o); err != nil {
		t.Fatal(err)
	}
	cold := eng.Stats()
	if cold.Misses == 0 {
		t.Fatal("cold run recorded no cache misses")
	}
	if _, err := RunOptimizer(o); err != nil {
		t.Fatal(err)
	}
	warm := eng.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm run simulated %d new runs, want 0", warm.Misses-cold.Misses)
	}
	if warm.Hits() <= cold.Hits() {
		t.Error("warm run recorded no cache hits")
	}
	foundSpan := false
	for _, ev := range tracer.Events() {
		if ev.Lane == -2 && strings.HasPrefix(ev.Name, "optimize ") {
			foundSpan = true
			break
		}
	}
	if !foundSpan {
		t.Error("no optimizer spans on the tracer")
	}
}
