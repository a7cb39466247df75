package serve

// Request coalescing: single-vector predicts that miss the cache queue into
// micro-batches that drain through the forest's tree-major flat batch path
// (one pass of every tree over the whole batch, cache-hot node arrays)
// instead of walking the forest once per request. A batch drains when it
// reaches maxSize or when the oldest queued request has waited window — the
// classic throughput-for-bounded-latency trade. Because the flat batch path is
// bit-identical to the per-row walk, a coalesced prediction returns exactly
// the bytes the request would have gotten alone; coalescing changes
// scheduling, never results.

import (
	"sync"
	"time"
)

// coalesceReq is one queued single predict: its row and the channel its
// caller waits on. The row's p and err are valid once done closes.
type coalesceReq struct {
	row  *predictRow
	done chan struct{}
}

// coalescer accumulates single predicts for one model snapshot and drains
// them as micro-batches. It is created per snapshot: requests that enqueued
// before a hot-reload swap drain on the snapshot they resolved, so a reload
// never splits a batch across model versions.
type coalescer struct {
	window  time.Duration
	maxSize int
	drain   func([]*coalesceReq) // runs outside the lock, in its own goroutine

	mu      sync.Mutex
	pending []*coalesceReq
	timer   *time.Timer
}

func newCoalescer(window time.Duration, maxSize int, drain func([]*coalesceReq)) *coalescer {
	if maxSize <= 0 {
		maxSize = 32
	}
	return &coalescer{window: window, maxSize: maxSize, drain: drain}
}

// enqueue adds one request to the forming batch. The first request arms the
// window timer; reaching maxSize flushes immediately.
func (c *coalescer) enqueue(req *coalesceReq) {
	c.mu.Lock()
	c.pending = append(c.pending, req)
	if len(c.pending) >= c.maxSize {
		c.flushLocked()
		c.mu.Unlock()
		return
	}
	if len(c.pending) == 1 {
		c.timer = time.AfterFunc(c.window, c.flush)
	}
	c.mu.Unlock()
}

// flush drains whatever is pending (the window expired).
func (c *coalescer) flush() {
	c.mu.Lock()
	c.flushLocked()
	c.mu.Unlock()
}

// flushLocked hands the pending batch to the drain goroutine and resets the
// queue. Caller holds c.mu.
func (c *coalescer) flushLocked() {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	if len(c.pending) == 0 {
		return
	}
	batch := c.pending
	c.pending = nil
	go c.drain(batch)
}
