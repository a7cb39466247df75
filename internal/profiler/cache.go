package profiler

import (
	"runtime"

	"blackforest/internal/gpusim"
	"blackforest/internal/runcache"
)

// profileCacheVersion salts every run key with the profiler's own result
// semantics. Bump it whenever the Profile schema or the way metrics are
// derived changes, so stale cache entries from older binaries can never
// be mistaken for current results. (Simulator-model changes are covered
// separately by gpusim.ModelVersion.) v4 moved entries from JSON to the
// binary layout of codec.go, so no JSON entry is ever read as one.
const profileCacheVersion = "profile-v4"

// NewRunCache builds a content-addressed cache of profiles, keyed by
// RunKey and stored in the binary layout of codec.go (floats as their
// bits, so disk round trips are bit-identical). dir "" keeps the cache
// memory-only; maxMem bounds the in-memory LRU layer
// (0 = runcache.DefaultMaxMemEntries).
func NewRunCache(dir string, maxMem int) (*runcache.Cache[*Profile], error) {
	return runcache.New(runcache.Config{Dir: dir, MaxMemEntries: maxMem}, encodeProfile, decodeProfile)
}

// RunKey derives the content address of one profiled run: a SHA-256 over
// everything the resulting Profile is a pure function of — the simulator
// and profiler version salts, the device model, every profiling option
// that shapes the result (simulated-block cap, noise level, noise seed,
// fault profile, retry budget), and the workload identity (name, sorted
// characteristics, input seed). Two runs share a key if and only if they
// are guaranteed to produce bit-identical profiles, so a cache hit can
// substitute for a simulation anywhere — across experiments, processes,
// and machines.
func (p *Profiler) RunKey(w Workload) runcache.Key {
	h := runcache.NewHasher()
	h.String("blackforest/run")
	h.String(gpusim.ModelVersion)
	h.String(profileCacheVersion)
	h.String(p.dev.Name)
	h.Int(p.opt.MaxSimBlocks)
	h.Float64(p.opt.NoiseSigma)
	h.Uint64(p.opt.Seed)
	h.Int(p.opt.Retries)
	h.String(p.opt.Faults.Config().String())
	h.String(w.Name())
	chars := w.Characteristics()
	for _, k := range sortedKeys(chars) {
		h.String(k)
		h.Float64(chars[k])
	}
	if s, ok := w.(InputSeeded); ok {
		h.Uint64(1) // presence marker: seeded and unseeded never collide
		h.Uint64(s.InputSeed())
	}
	return h.Sum()
}

// Gate is a shared worker-pool semaphore: every profiling run acquires a
// slot for the duration of its simulation. Handing the same Gate to
// several concurrent collections drains all their runs through one
// global pool — the machine stays saturated across experiments instead
// of each collection rationing its own workers. Cache lookups and
// coalesced waits do not hold a slot; only real simulation work does.
//
// Slots carry stable ids 0..n-1, so a holder knows which of the n workers
// it is — the tracer uses the id as the span's lane, which is what makes
// scheduler occupancy visible as one timeline per worker.
type Gate chan int

// NewGate builds a gate admitting n concurrent runs (n <= 0 selects
// runtime.NumCPU()).
func NewGate(n int) Gate {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	g := make(Gate, n)
	for i := 0; i < n; i++ {
		g <- i
	}
	return g
}

// Size returns the number of slots.
func (g Gate) Size() int { return cap(g) }

func (g Gate) enter() int     { return <-g }
func (g Gate) leave(slot int) { g <- slot }
