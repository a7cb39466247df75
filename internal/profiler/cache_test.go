package profiler_test

import (
	"math"
	"sync"
	"testing"

	"blackforest/internal/faults"
	"blackforest/internal/gpusim"
	"blackforest/internal/kernels"
	"blackforest/internal/profiler"
	"blackforest/internal/runcache"
)

func testDevice(t *testing.T) *gpusim.Device {
	t.Helper()
	dev, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func cacheSweep(seed uint64) []profiler.Workload {
	var runs []profiler.Workload
	for _, n := range []int{1 << 12, 1 << 13, 1 << 14, 1 << 15} {
		seed++
		runs = append(runs, &kernels.Reduction{Variant: 2, N: n, BlockSize: 256, Seed: seed})
	}
	return runs
}

// profilesBitIdentical fails unless a and b agree to the last float bit.
func profilesBitIdentical(t *testing.T, a, b []*profiler.Profile) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("profile counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Workload != y.Workload || x.Device != y.Device || x.Launches != y.Launches {
			t.Fatalf("run %d: identity fields differ", i)
		}
		for _, pair := range [][2]float64{
			{x.TimeMS, y.TimeMS},
			{x.ModelTimeMS, y.ModelTimeMS},
			{x.PowerW, y.PowerW},
			{x.EnergyMJ, y.EnergyMJ},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("run %d: response bits differ: %x vs %x", i,
					math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
		if len(x.Metrics) != len(y.Metrics) {
			t.Fatalf("run %d: metric sets differ", i)
		}
		for name, v := range x.Metrics {
			w, ok := y.Metrics[name]
			if !ok || math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("run %d: metric %s differs: %v vs %v", i, name, v, w)
			}
		}
	}
}

// TestCachedCollectionBitIdentical is the tentpole guarantee: profiles
// served by the cache — memory hits, coalesced in-flight shares, and
// disk round trips — are bit-identical to an uncached sequential run.
func TestCachedCollectionBitIdentical(t *testing.T) {
	dev := testDevice(t)
	opt := profiler.Options{MaxSimBlocks: 4, Seed: 9}
	sequential := opt
	sequential.Gate = profiler.NewGate(1)
	baseline, err := profiler.New(dev, sequential).RunAll(cacheSweep(100))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cache, err := profiler.NewRunCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	optC := opt
	optC.Cache = cache
	optC.Gate = profiler.NewGate(4)
	p := profiler.New(dev, optC)

	// Cold pass: all misses, all simulated.
	cold, err := p.RunAll(cacheSweep(100))
	if err != nil {
		t.Fatal(err)
	}
	profilesBitIdentical(t, baseline, cold)
	if s := cache.Stats(); s.Hits() != 0 || s.Writes != 4 {
		t.Fatalf("cold stats = %+v, want 0 hits, 4 writes", s)
	}

	// Warm pass in the same process: pure memory hits.
	warm, err := p.RunAll(cacheSweep(100))
	if err != nil {
		t.Fatal(err)
	}
	profilesBitIdentical(t, baseline, warm)
	if s := cache.Stats(); s.MemHits != 4 {
		t.Fatalf("warm stats = %+v, want 4 memory hits", s)
	}

	// Fresh cache over the same directory: disk hits, still bit-identical.
	cache2, err := profiler.NewRunCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	optC2 := opt
	optC2.Cache = cache2
	optC2.Gate = profiler.NewGate(4)
	disk, err := profiler.New(dev, optC2).RunAll(cacheSweep(100))
	if err != nil {
		t.Fatal(err)
	}
	profilesBitIdentical(t, baseline, disk)
	if s := cache2.Stats(); s.DiskHits != 4 || s.Misses != 0 {
		t.Fatalf("disk stats = %+v, want 4 disk hits, 0 misses", s)
	}
}

// TestRunKeySensitivity: every input that can change a profile must
// change the key, and irrelevant differences must not.
func TestRunKeySensitivity(t *testing.T) {
	dev := testDevice(t)
	base := profiler.Options{MaxSimBlocks: 4, Seed: 9}
	w := &kernels.Reduction{Variant: 2, N: 4096, BlockSize: 256, Seed: 5}
	key := profiler.New(dev, base).RunKey(w)

	if profiler.New(dev, base).RunKey(w) != key {
		t.Fatal("same inputs must derive the same key")
	}
	if profiler.New(dev, base).RunKey(&kernels.Reduction{Variant: 2, N: 4096, BlockSize: 256, Seed: 5}) != key {
		t.Fatal("key must depend on identity, not instance")
	}

	mutate := map[string]func() runcache.Key{
		"seed": func() runcache.Key {
			o := base
			o.Seed = 10
			return profiler.New(dev, o).RunKey(w)
		},
		"simblocks": func() runcache.Key {
			o := base
			o.MaxSimBlocks = 8
			return profiler.New(dev, o).RunKey(w)
		},
		"noise": func() runcache.Key {
			o := base
			o.NoiseSigma = -1
			return profiler.New(dev, o).RunKey(w)
		},
		"faults": func() runcache.Key {
			o := base
			o.Faults = faults.New(faults.Config{Seed: 1, CounterDropout: 0.5})
			return profiler.New(dev, o).RunKey(w)
		},
		"device": func() runcache.Key {
			dev2, err := gpusim.LookupDevice("K20m")
			if err != nil {
				t.Fatal(err)
			}
			return profiler.New(dev2, base).RunKey(w)
		},
		"workload-size": func() runcache.Key {
			return profiler.New(dev, base).RunKey(&kernels.Reduction{Variant: 2, N: 8192, BlockSize: 256, Seed: 5})
		},
		"input-seed": func() runcache.Key {
			return profiler.New(dev, base).RunKey(&kernels.Reduction{Variant: 2, N: 4096, BlockSize: 256, Seed: 6})
		},
		"variant": func() runcache.Key {
			return profiler.New(dev, base).RunKey(&kernels.Reduction{Variant: 3, N: 4096, BlockSize: 256, Seed: 5})
		},
	}
	seen := map[runcache.Key]string{key: "base"}
	for name, f := range mutate {
		k := f()
		if prev, dup := seen[k]; dup {
			t.Fatalf("mutation %q collided with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestSharedGateAcrossCollections drains two concurrent sweeps through
// one gate and one cache; the frames must match per-collection baselines
// and identical runs across the collections must coalesce or hit.
func TestSharedGateAcrossCollections(t *testing.T) {
	dev := testDevice(t)
	opt := profiler.Options{MaxSimBlocks: 4, Seed: 9}
	sequential := opt
	sequential.Gate = profiler.NewGate(1)
	baseline, err := profiler.New(dev, sequential).RunAll(cacheSweep(100))
	if err != nil {
		t.Fatal(err)
	}

	cache, err := profiler.NewRunCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := opt
	shared.Cache = cache
	shared.Gate = profiler.NewGate(4)
	p := profiler.New(dev, shared)

	const collections = 3
	results := make([][]*profiler.Profile, collections)
	errs := make([]error, collections)
	var wg sync.WaitGroup
	for i := 0; i < collections; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.RunAll(cacheSweep(100))
		}(i)
	}
	wg.Wait()
	for i := 0; i < collections; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		profilesBitIdentical(t, baseline, results[i])
	}
	// 4 unique runs across 12 requests: 8 were served without simulating.
	s := cache.Stats()
	if s.Hits()+s.Coalesced != 8 {
		t.Fatalf("stats = %+v, want hits+coalesced = 8", s)
	}
	if s.Writes != 0 {
		t.Fatalf("stats = %+v, want no disk writes for memory-only cache", s)
	}
}

// TestCacheWithFaultsKeyed: a faulty collection and a clean one must not
// share cache entries, and the faulty one's degraded profiles are
// themselves reproducible through the cache.
func TestCacheWithFaultsKeyed(t *testing.T) {
	dev := testDevice(t)
	cache, err := profiler.NewRunCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	clean := profiler.Options{MaxSimBlocks: 4, Seed: 9, Cache: cache, Gate: profiler.NewGate(2)}
	faulty := clean
	faulty.Faults = faults.New(faults.Config{Seed: 3, CounterDropout: 0.3})
	faulty.Retries = 2

	cleanProfiles, err := profiler.New(dev, clean).RunAll(cacheSweep(100))
	if err != nil {
		t.Fatal(err)
	}
	faultyProfiles, err := profiler.New(dev, faulty).RunAll(cacheSweep(100))
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits() != 0 {
		t.Fatalf("stats = %+v: clean and faulty runs must not share entries", s)
	}
	dropped := 0
	for _, p := range faultyProfiles {
		dropped += len(p.Dropped)
	}
	if dropped == 0 {
		t.Fatal("expected injected dropout in faulty profiles")
	}
	for _, p := range cleanProfiles {
		if len(p.Dropped) != 0 {
			t.Fatal("clean profiles must not report dropout")
		}
	}
	// Warm faulty pass: bit-identical degraded profiles from cache.
	again, err := profiler.New(dev, faulty).RunAll(cacheSweep(100))
	if err != nil {
		t.Fatal(err)
	}
	profilesBitIdentical(t, faultyProfiles, again)
	if s := cache.Stats(); s.Hits() != 4 {
		t.Fatalf("stats = %+v, want 4 hits on warm faulty pass", s)
	}
}
