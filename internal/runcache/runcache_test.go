package runcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// payload is a stand-in for a profile: a map of float64 metrics, the
// shape whose bit-exact round-trip the cache must guarantee.
type payload struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
	Time    float64            `json:"time"`
}

func newTestCache(t *testing.T, cfg Config) *Cache[*payload] {
	t.Helper()
	c, err := New(cfg,
		func(p *payload) ([]byte, error) { return json.Marshal(p) },
		func(b []byte) (*payload, error) {
			var p payload
			if err := json.Unmarshal(b, &p); err != nil {
				return nil, err
			}
			return &p, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func keyOf(parts ...string) Key {
	h := NewHasher()
	for _, p := range parts {
		h.String(p)
	}
	return h.Sum()
}

func TestHasherDistinguishesConcatenations(t *testing.T) {
	// "ab"+"c" must not collide with "a"+"bc" (length prefixes), and
	// field order must matter.
	if keyOf("ab", "c") == keyOf("a", "bc") {
		t.Fatal("length-prefixing failed: concatenation collision")
	}
	if keyOf("a", "b") == keyOf("b", "a") {
		t.Fatal("order should matter")
	}
	if NewHasher().Float64(0).Sum() == NewHasher().Float64(math.Copysign(0, -1)).Sum() {
		t.Fatal("-0.0 and +0.0 should hash distinctly")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	c := newTestCache(t, Config{})
	k := keyOf("run1")
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache should miss")
	}
	want := &payload{Name: "run1", Time: 1.25, Metrics: map[string]float64{"x": 3.5}}
	c.Put(k, want)
	got, ok := c.Get(k)
	if !ok || got != want {
		t.Fatalf("memory hit should return the stored pointer; got %v ok=%v", got, ok)
	}
	s := c.Stats()
	if s.MemHits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 mem hit, 1 miss", s)
	}
}

func TestDiskRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, Config{Dir: dir})
	k := keyOf("run-disk")
	// Awkward floats: denormals, huge magnitudes, values with no short
	// decimal form — all must survive encode/decode bit for bit.
	want := &payload{
		Name: "disk",
		Time: math.Nextafter(1.0, 2.0),
		Metrics: map[string]float64{
			"denormal": 5e-324,
			"big":      1.7976931348623157e308,
			"third":    1.0 / 3.0,
			"neg":      -0.0,
		},
	}
	c.Put(k, want)

	// A fresh cache over the same dir must hit from disk with identical bits.
	c2 := newTestCache(t, Config{Dir: dir})
	got, ok := c2.Get(k)
	if !ok {
		t.Fatal("expected disk hit in fresh cache")
	}
	if got == want {
		t.Fatal("disk hit must be a decoded copy, not the same pointer")
	}
	if math.Float64bits(got.Time) != math.Float64bits(want.Time) {
		t.Fatalf("Time bits differ: %x vs %x", math.Float64bits(got.Time), math.Float64bits(want.Time))
	}
	for name, v := range want.Metrics {
		if math.Float64bits(got.Metrics[name]) != math.Float64bits(v) {
			t.Fatalf("metric %s bits differ", name)
		}
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", s)
	}
	// The disk hit is promoted to memory: next Get is a memory hit.
	if _, ok := c2.Get(k); !ok {
		t.Fatal("promoted entry should hit")
	}
	if s := c2.Stats(); s.MemHits != 1 {
		t.Fatalf("stats = %+v, want 1 mem hit after promotion", s)
	}
}

func TestLRUBound(t *testing.T) {
	c := newTestCache(t, Config{MaxMemEntries: 3})
	for i := 0; i < 5; i++ {
		c.Put(keyOf(fmt.Sprintf("k%d", i)), &payload{Name: fmt.Sprintf("k%d", i)})
	}
	if s := c.Stats(); s.Evictions != 2 {
		t.Fatalf("stats = %+v, want 2 evictions", s)
	}
	// k0, k1 evicted; k2..k4 resident.
	if _, ok := c.Get(keyOf("k0")); ok {
		t.Fatal("k0 should have been evicted")
	}
	if _, ok := c.Get(keyOf("k4")); !ok {
		t.Fatal("k4 should be resident")
	}
	// Touch k2, insert k5: k3 is now the LRU victim.
	if _, ok := c.Get(keyOf("k2")); !ok {
		t.Fatal("k2 should be resident")
	}
	c.Put(keyOf("k5"), &payload{Name: "k5"})
	if _, ok := c.Get(keyOf("k2")); !ok {
		t.Fatal("recently used k2 should survive")
	}
	if _, ok := c.Get(keyOf("k3")); ok {
		t.Fatal("k3 should have been evicted")
	}
}

func TestMemoryLayerDisabled(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, Config{Dir: dir, MaxMemEntries: -1})
	k := keyOf("nomem")
	c.Put(k, &payload{Name: "nomem"})
	if _, ok := c.Get(k); !ok {
		t.Fatal("disk layer should still serve with memory disabled")
	}
	if s := c.Stats(); s.MemHits != 0 || s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want disk-only hits", s)
	}
}

func TestDoComputesOncePerKey(t *testing.T) {
	c := newTestCache(t, Config{})
	var computes atomic.Int64
	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]*payload, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := c.Do(keyOf("shared"), func() (*payload, error) {
				computes.Add(1)
				return &payload{Name: "shared", Time: 7}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatal("coalesced callers should share the leader's value")
		}
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := newTestCache(t, Config{})
	boom := errors.New("boom")
	k := keyOf("flaky")
	if _, err := c.Do(k, func() (*payload, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := c.Do(k, func() (*payload, error) { return &payload{Name: "ok"}, nil })
	if err != nil || v.Name != "ok" {
		t.Fatalf("retry after error should compute: %v %v", v, err)
	}
}

// TestDoPanicReleasesKey: a compute that panics must not wedge its key —
// a later Do for the same key computes afresh instead of blocking forever.
func TestDoPanicReleasesKey(t *testing.T) {
	c := newTestCache(t, Config{})
	k := keyOf("panicky")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compute's panic did not reach the caller")
			}
		}()
		c.Do(k, func() (*payload, error) { panic("boom") })
	}()
	done := make(chan *payload, 1)
	go func() {
		v, _ := c.Do(k, func() (*payload, error) { return &payload{Name: "ok"}, nil })
		done <- v
	}()
	select {
	case v := <-done:
		if v == nil || v.Name != "ok" {
			t.Fatalf("Do after a panicked compute = %+v, want a fresh computation", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do blocked on the key of a panicked compute")
	}
}

func TestNilCacheIsNoOp(t *testing.T) {
	var c *Cache[*payload]
	if _, ok := c.Get(keyOf("x")); ok {
		t.Fatal("nil cache should miss")
	}
	c.Put(keyOf("x"), &payload{})
	v, err := c.Do(keyOf("x"), func() (*payload, error) { return &payload{Name: "direct"}, nil })
	if err != nil || v.Name != "direct" {
		t.Fatalf("nil Do should compute directly: %v %v", v, err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil stats = %+v, want zero", s)
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, Config{Dir: dir, MaxMemEntries: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := keyOf(fmt.Sprintf("k%d", i%12))
				v, err := c.Do(k, func() (*payload, error) {
					return &payload{Name: fmt.Sprintf("k%d", i%12), Time: float64(i % 12)}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v.Time != float64(i%12) {
					t.Errorf("wrong value for key %d: %v", i%12, v.Time)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHitRate(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
	s := Stats{MemHits: 3, DiskHits: 1, Misses: 4}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
	if s.Hits() != 4 {
		t.Fatalf("hits = %d, want 4", s.Hits())
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{MemHits: 3, DiskHits: 1, Misses: 4, Writes: 2}
	if got, want := s.String(), "4 hits, 4 misses (50% hit rate), 2 writes"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	warm := Stats{DiskHits: 7}
	if got, want := warm.String(), "7 hits, 0 misses (100% hit rate), 0 writes"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestDiskWriteFailureDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, Config{Dir: dir})
	// Swap the directory for a file: every disk write now fails, but Put
	// still serves from memory and the failure is counted.
	c.dir = filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(c.dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	k := keyOf("degraded")
	c.Put(k, &payload{Name: "degraded"})
	if _, ok := c.Get(k); !ok {
		t.Fatal("memory layer should still serve")
	}
	if s := c.Stats(); s.WriteErrors != 1 || s.Writes != 0 {
		t.Fatalf("stats = %+v, want 1 write error", s)
	}
}
