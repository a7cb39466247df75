// Package memo holds two memoization primitives: a bounded LRU map, shared
// by bfserve's per-model prediction cache and the run cache's memory layer,
// and a singleflight group, behind the run cache's Do, that coalesces
// concurrent computations of the same key.
package memo

import (
	"container/list"
	"errors"
	"sync"
)

// LRU is a bounded, mutex-protected map that evicts its least recently used
// entry when full. A nil *LRU is a disabled cache: Get always misses, Put
// stores nothing, Len is 0.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *entry[K, V]
	items    map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns a cache holding at most capacity entries, or nil (caching
// disabled) when capacity <= 0.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity <= 0 {
		return nil
	}
	return &LRU[K, V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[K]*list.Element),
	}
}

// Get returns the value for key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put inserts or refreshes key's value as the most recently used entry. It
// reports whether the insertion evicted the least recently used entry.
func (c *LRU[K, V]) Put(key K, v V) (evicted bool) {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return false
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		evicted = true
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: v})
	return evicted
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// ErrPanicked is what callers sharing a computation receive when the
// caller running it panicked.
var ErrPanicked = errors.New("shared computation panicked")

// Group coalesces concurrent calls for the same key onto one computation.
// The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one in-flight computation; val and err are valid once done is
// closed.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
	dups int // callers waiting on this call (guarded by Group.mu)
}

// Do runs fn for key unless a call for key is already in flight, in which
// case it waits for that call and returns its result with shared = true.
// Errors are shared but not remembered: once a call finishes, the next Do
// for its key runs fn again. If fn panics, the panic keeps unwinding in the
// caller that ran it, and the callers waiting on it return ErrPanicked;
// the key is released either way, so it can never stay blocked.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	// err stays ErrPanicked unless fn returns.
	c := &call[V]{done: make(chan struct{}), err: ErrPanicked}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}
