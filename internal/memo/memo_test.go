package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEvictsOldest(t *testing.T) {
	c := NewLRU[string, float64](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before capacity reached")
	}
	// "a" was just used, so inserting "c" must evict "b".
	if !c.Put("c", 3) {
		t.Fatal("insert into a full cache reported no eviction")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("new entry missing")
	}
	if c.Len() != 2 {
		t.Fatalf("size %d, want 2", c.Len())
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	c := NewLRU[string, float64](2)
	c.Put("a", 1)
	if c.Put("a", 9) {
		t.Fatal("refreshing an entry reported an eviction")
	}
	if c.Len() != 1 {
		t.Fatalf("size %d after duplicate put", c.Len())
	}
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("stale value %v", v)
	}
}

func TestLRUDisabled(t *testing.T) {
	if NewLRU[string, int](0) != nil || NewLRU[string, int](-5) != nil {
		t.Fatal("non-positive capacity should disable the cache")
	}
	var c *LRU[string, int]
	if c.Put("a", 1) {
		t.Fatal("disabled cache reported an eviction")
	}
	if _, ok := c.Get("a"); ok || c.Len() != 0 {
		t.Fatal("disabled cache stored a value")
	}
}

// TestLRUConcurrent exercises the lock under -race.
func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[string, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				c.Put(key, i)
				c.Get(key)
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache overflowed: %d entries", c.Len())
	}
}

// TestGroupCoalescesConcurrentCallers: N callers that arrive while one
// computation is in flight share it — fn runs once, every caller gets its
// result, and all but the one that ran it report shared.
func TestGroupCoalescesConcurrentCallers(t *testing.T) {
	const n = 16
	var g Group[string, int]
	var runs, sharedN atomic.Int64
	release := make(chan struct{})
	fn := func() (int, error) {
		runs.Add(1)
		<-release
		return 42, nil
	}
	var started, wg sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			v, shared, err := g.Do("k", fn)
			if err != nil || v != 42 {
				t.Errorf("Do = %v, %v; want 42, nil", v, err)
			}
			if shared {
				sharedN.Add(1)
			}
		}()
	}
	started.Wait()
	// Wait until every caller is blocked on the one call in flight.
	for runs.Load() == 0 || g.waiting("k") < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", runs.Load())
	}
	if sharedN.Load() != n-1 {
		t.Fatalf("%d callers shared, want %d", sharedN.Load(), n-1)
	}
	// The finished call is forgotten: the next Do computes afresh.
	if _, shared, _ := g.Do("k", func() (int, error) { return 7, nil }); shared {
		t.Fatal("Do after completion shared a finished call")
	}
}

// TestGroupLeaderPanicReleasesFollowers: when the computing caller panics,
// the panic unwinds in that caller, the callers waiting on it get
// ErrPanicked instead of hanging, and the key is free again.
func TestGroupLeaderPanicReleasesFollowers(t *testing.T) {
	var g Group[string, int]
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		g.Do("k", func() (int, error) {
			close(entered)
			<-release
			panic("leader boom")
		})
	}()
	<-entered
	const followers = 4
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func() {
			_, _, err := g.Do("k", func() (int, error) { return 0, errors.New("follower ran fn") })
			errs <- err
		}()
	}
	for g.waiting("k") < followers {
		time.Sleep(time.Millisecond)
	}
	close(release)

	timeout := time.After(5 * time.Second)
	select {
	case p := <-leaderPanic:
		if p != "leader boom" {
			t.Fatalf("leader recovered %v, want its own panic", p)
		}
	case <-timeout:
		t.Fatal("leader never returned")
	}
	for i := 0; i < followers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrPanicked) {
				t.Fatalf("follower got %v, want ErrPanicked", err)
			}
		case <-timeout:
			t.Fatal("follower hung on the panicked call")
		}
	}
	if v, shared, err := g.Do("k", func() (int, error) { return 1, nil }); v != 1 || shared || err != nil {
		t.Fatalf("Do after a panic = %v, %v, %v; want a fresh computation", v, shared, err)
	}
}

// waiting returns how many callers are blocked on key's in-flight call.
func (g *Group[K, V]) waiting(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.dups
	}
	return 0
}
