package kernels

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"blackforest/internal/profiler"
)

// TestSampledRunCostsSimulatedBlocks: a sampled run allocates for the
// blocks it simulates, not for the problem size. When Plan materialized
// every input and output, each of these runs allocated its full-size
// buffers — the tens of MB listed — whatever MaxSimBlocks was; now inputs
// are derived from their index and only the pages that simulated blocks
// write are stored.
func TestSampledRunCostsSimulatedBlocks(t *testing.T) {
	const bound = 16 << 20 // bytes allocated per run, everything included
	p := profiler.New(mustDevice(t, "GTX580"), profiler.Options{MaxSimBlocks: 16, NoiseSigma: -1})
	for _, c := range []struct {
		w            profiler.Workload
		materialized int // bytes of the full-size buffers
	}{
		{&NeedlemanWunsch{SeqLen: 4096, Seed: 1}, 4 * 4097 * 4097},
		{&MatMul{N: 2048, Seed: 1}, 3 * 4 * 2048 * 2048},
		{&Reduction{Variant: 2, N: 1 << 23, Seed: 1}, 4 << 23},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := p.Run(c.w); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.1f MB allocated", c.w.Name(), float64(got)/(1<<20))
		if got > bound {
			t.Errorf("%s: a 16-block sampled run allocated %.1f MB (bound %.0f MB; full-size buffers are %.0f MB)",
				c.w.Name(), float64(got)/(1<<20), float64(bound)/(1<<20), float64(c.materialized)/(1<<20))
		}
	}
}

// TestPooledProfilerRunsBitIdentical: profilers reuse simulators across
// runs, per device configuration, so a run on a simulator that other runs
// have dirtied must produce the profile a new simulator does, to the last
// bit. The reference runs on a renamed copy of the device: a configuration
// of its own, whose pool is empty, so it gets a new simulator.
func TestPooledProfilerRunsBitIdentical(t *testing.T) {
	dev := mustDevice(t, "K20m")
	opts := profiler.Options{MaxSimBlocks: 8}
	workloads := func() []profiler.Workload {
		return []profiler.Workload{
			&NeedlemanWunsch{SeqLen: 256, Seed: 3},
			&MatMul{N: 128, Seed: 3},
			&Reduction{Variant: 6, N: 1 << 16, Seed: 3},
			&Transpose{Variant: 1, N: 128, Seed: 3},
			&Histogram{Variant: 0, N: 1 << 14, Skew: 0.5, Seed: 3},
		}
	}
	pooled := profiler.New(dev, opts)
	for _, w := range workloads() {
		if _, err := pooled.Run(w); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workloads() {
		got, err := pooled.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		own := *dev
		own.Name = fmt.Sprintf("%s (pool test %d)", dev.Name, i)
		want, err := profiler.New(&own, opts).Run(w)
		if err != nil {
			t.Fatal(err)
		}
		want.Device = got.Device
		for _, name := range want.MetricNames() {
			if math.Float64bits(got.Metrics[name]) != math.Float64bits(want.Metrics[name]) {
				t.Fatalf("%s: %s = %v pooled, %v new", w.Name(), name, got.Metrics[name], want.Metrics[name])
			}
		}
		if len(got.Metrics) != len(want.Metrics) || got.Breakdown != want.Breakdown ||
			math.Float64bits(got.TimeMS) != math.Float64bits(want.TimeMS) ||
			math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) ||
			math.Float64bits(got.EnergyMJ) != math.Float64bits(want.EnergyMJ) ||
			math.Float64bits(got.PowerW) != math.Float64bits(want.PowerW) {
			t.Fatalf("%s: pooled profile %+v\nnew %+v", w.Name(), got, want)
		}
	}
}

// TestReleasedPagesComeBackZeroed: Release hands a store's pages and page
// map to the free list, and a later store of that element type and page
// size reuses them: a recycled page is cleared, so it reads as zero like a
// new one, no page of the released store shows through the reused map,
// and a page in use is never handed out twice. The free list lives in a
// sync.Pool, which may drop it (at garbage collection, or at random under
// the race detector), so reuse is required in some trial, not in every
// one. The page size (64) is one no kernel uses, so no other store shares
// this free list.
func TestReleasedPagesComeBackZeroed(t *testing.T) {
	reused := false
	for trial := 0; trial < 20; trial++ {
		a := newPaged[int32](64)
		dirty := a.writable(3)
		for i := range dirty {
			dirty[i] = int32(i + 1)
		}
		a.release()
		a.release() // a second release has nothing left to hand back
		if a.page(3) != nil {
			t.Fatal("a released store still holds its page")
		}

		b := newPaged[int32](64)
		if b.page(3) != nil {
			t.Fatal("a recycled page map kept the released store's page")
		}
		pg := b.writable(7)
		reused = reused || &pg[0] == &dirty[0]
		for i, v := range pg {
			if v != 0 {
				t.Fatalf("recycled page element %d = %d, want 0", i, v)
			}
		}
		if other := b.writable(8); &other[0] == &pg[0] {
			t.Fatal("a page in use was handed out again")
		}
		b.release()
	}
	if !reused {
		t.Fatal("no released page was reused in 20 trials")
	}
}
