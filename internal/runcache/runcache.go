// Package runcache is BlackForest's content-addressed run cache: a
// two-layer (memory + disk) store for the results of deterministic
// simulator runs. Since PR 1 every profile is a pure function of its run
// identity — (device model, kernel, launch configuration, problem size,
// noise seed, fault spec, simulator version) — so the same run never needs
// to be simulated twice. The cache keys entries by a SHA-256 hash of that
// identity and guarantees that a hit is bit-identical to a recompute:
// entries that cannot be proven intact (bad magic, short file, checksum
// mismatch, undecodable payload) are treated as misses, deleted, and
// recomputed, never served.
//
// Layers:
//
//   - memory: an LRU-bounded map holding decoded values, so warm lookups
//     cost one mutex acquisition and no decoding;
//   - disk (optional): one file per key, written atomically
//     (temp file + rename) so readers never observe a partial entry and
//     concurrent writers at worst both write the same bytes.
//
// Do adds run-level singleflight on top: concurrent requests for the same
// key share one computation, so a global scheduler draining many
// experiments never simulates identical in-flight runs twice.
//
// The zero-value *Cache (nil) is a valid no-op: Get always misses, Put
// does nothing, and Do just computes — callers thread it unconditionally.
package runcache

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync/atomic"

	"blackforest/internal/memo"
)

// Key is a content-addressed cache key: the SHA-256 of the run identity,
// built with Hasher. Its hex form names the disk entry.
type Key [32]byte

// String returns the key as lower-case hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Config configures a cache.
type Config struct {
	// Dir is the disk layer's directory; it is created on first write.
	// Empty disables the disk layer (memory-only cache).
	Dir string
	// MaxMemEntries bounds the memory layer: when full, the least
	// recently used entry is evicted (it remains on disk if a disk layer
	// exists). 0 selects DefaultMaxMemEntries; negative disables the
	// memory layer entirely.
	MaxMemEntries int
}

// DefaultMaxMemEntries is the memory-layer bound when Config leaves it 0.
const DefaultMaxMemEntries = 4096

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	// MemHits and DiskHits count lookups served from each layer.
	MemHits  int64 `json:"mem_hits"`
	DiskHits int64 `json:"disk_hits"`
	// Misses counts lookups that found nothing usable.
	Misses int64 `json:"misses"`
	// Coalesced counts Do callers that shared another caller's in-flight
	// computation instead of simulating themselves.
	Coalesced int64 `json:"coalesced"`
	// Writes counts disk entries written; WriteErrors counts writes that
	// failed (the value is still returned to the caller — a broken disk
	// degrades to memory-only caching, never to a wrong answer).
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	// Evictions counts memory-layer LRU evictions.
	Evictions int64 `json:"evictions"`
	// BadEntries counts corrupt/truncated/undecodable disk entries that
	// were discarded (and deleted) instead of being served.
	BadEntries int64 `json:"bad_entries"`
}

// Hits returns the total lookups served from either layer.
func (s Stats) Hits() int64 { return s.MemHits + s.DiskHits }

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits() + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// String is the one-line summary the CLIs print:
// "H hits, M misses (P% hit rate), W writes".
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses (%.0f%% hit rate), %d writes",
		s.Hits(), s.Misses, 100*s.HitRate(), s.Writes)
}

// Cache is a two-layer content-addressed store of T values. It is safe
// for concurrent use. Values handed out by Get/Do may be shared between
// callers and with the memory layer: callers must treat them as
// immutable.
type Cache[T any] struct {
	dir    string
	encode func(T) ([]byte, error)
	decode func([]byte) (T, error)

	mem    *memo.LRU[Key, T] // nil when the memory layer is disabled
	flight memo.Group[Key, T]

	memHits, diskHits, misses, coalesced   atomic.Int64
	writes, writeErrors, evictions, badEnt atomic.Int64
}

// New builds a cache that serializes values with encode and revives them
// with decode. The encode/decode pair must round-trip values exactly
// (bit-for-bit for floating-point content) — the disk layer's hit path
// runs decode(encode(v)).
func New[T any](cfg Config, encode func(T) ([]byte, error), decode func([]byte) (T, error)) (*Cache[T], error) {
	if encode == nil || decode == nil {
		return nil, fmt.Errorf("runcache: encode and decode are required")
	}
	max := cfg.MaxMemEntries
	if max == 0 {
		max = DefaultMaxMemEntries
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("runcache: creating %s: %w", cfg.Dir, err)
		}
	}
	return &Cache[T]{
		dir:    cfg.Dir,
		encode: encode,
		decode: decode,
		mem:    memo.NewLRU[Key, T](max),
	}, nil
}

// Stats returns a snapshot of the cache's counters (zero for nil).
func (c *Cache[T]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		MemHits:     c.memHits.Load(),
		DiskHits:    c.diskHits.Load(),
		Misses:      c.misses.Load(),
		Coalesced:   c.coalesced.Load(),
		Writes:      c.writes.Load(),
		WriteErrors: c.writeErrors.Load(),
		Evictions:   c.evictions.Load(),
		BadEntries:  c.badEnt.Load(),
	}
}

// Dir returns the disk layer's directory ("" for memory-only or nil).
func (c *Cache[T]) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Get returns the cached value for key. A disk hit is promoted into the
// memory layer. Unreadable disk entries count as misses (and are
// deleted), never as wrong answers.
func (c *Cache[T]) Get(key Key) (T, bool) {
	var zero T
	if c == nil {
		return zero, false
	}
	return c.get(key, true)
}

// get is Get's engine; countMiss lets Do's post-registration re-check
// look up without inflating the miss counter a second time.
func (c *Cache[T]) get(key Key, countMiss bool) (T, bool) {
	var zero T
	if v, ok := c.mem.Get(key); ok {
		c.memHits.Add(1)
		return v, true
	}
	if v, ok := c.diskGet(key); ok {
		c.memPut(key, v)
		c.diskHits.Add(1)
		return v, true
	}
	if countMiss {
		c.misses.Add(1)
	}
	return zero, false
}

// Put stores the value in both layers. Disk-write failures degrade the
// entry to memory-only and are visible in Stats.WriteErrors.
func (c *Cache[T]) Put(key Key, v T) {
	if c == nil {
		return
	}
	c.memPut(key, v)
	if c.dir == "" {
		return
	}
	if err := c.diskPut(key, v); err != nil {
		c.writeErrors.Add(1)
		return
	}
	c.writes.Add(1)
}

// Do returns the cached value for key, or computes, stores, and returns
// it. Concurrent Do calls for the same key share one computation (the
// followers' results are the leader's, bit for bit). Errors are not
// cached: every Do after a failed computation retries. A compute that
// panics fails its followers and releases the key.
func (c *Cache[T]) Do(key Key, compute func() (T, error)) (T, error) {
	if c == nil {
		return compute()
	}
	if v, ok := c.Get(key); ok {
		return v, nil
	}
	v, shared, err := c.flight.Do(key, func() (T, error) {
		// Re-check under flight ownership: a leader that completed between
		// our Get and our registration has already populated the cache. The
		// original Get already counted this lookup's miss.
		if v, ok := c.get(key, false); ok {
			return v, nil
		}
		v, err := compute()
		if err == nil {
			c.Put(key, v)
		}
		return v, err
	})
	if shared {
		c.coalesced.Add(1)
	}
	return v, err
}

// --- memory layer ---

// memPut stores v in the memory layer, counting an LRU eviction.
func (c *Cache[T]) memPut(key Key, v T) {
	if c.mem.Put(key, v) {
		c.evictions.Add(1)
	}
}

// --- disk layer ---

// Disk entries are self-verifying: magic, payload length, FNV-1a 64
// checksum, payload. Anything that fails validation is discarded.
var diskMagic = [8]byte{'B', 'F', 'R', 'C', '1', 0, 0, 0}

const diskHeaderSize = 8 + 8 + 8 // magic + length + checksum

func (c *Cache[T]) path(key Key) string {
	return filepath.Join(c.dir, key.String()+".bfrc")
}

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

func (c *Cache[T]) diskGet(key Key) (T, bool) {
	var zero T
	if c.dir == "" {
		return zero, false
	}
	path := c.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.discard(path)
		}
		return zero, false
	}
	payload, ok := validateEntry(raw)
	if !ok {
		c.discard(path)
		return zero, false
	}
	v, err := c.decode(payload)
	if err != nil {
		c.discard(path)
		return zero, false
	}
	return v, true
}

// validateEntry checks an entry's framing and checksum, returning the
// payload when — and only when — the bytes are provably intact.
func validateEntry(raw []byte) ([]byte, bool) {
	if len(raw) < diskHeaderSize {
		return nil, false
	}
	if [8]byte(raw[:8]) != diskMagic {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	sum := binary.LittleEndian.Uint64(raw[16:24])
	payload := raw[diskHeaderSize:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	if checksum(payload) != sum {
		return nil, false
	}
	return payload, true
}

// discard removes a disk entry that failed validation, repairing the
// store: the next Put rewrites it from a fresh computation.
func (c *Cache[T]) discard(path string) {
	c.badEnt.Add(1)
	os.Remove(path)
}

func (c *Cache[T]) diskPut(key Key, v T) error {
	payload, err := c.encode(v)
	if err != nil {
		return err
	}
	buf := make([]byte, diskHeaderSize+len(payload))
	copy(buf[:8], diskMagic[:])
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint64(buf[16:24], checksum(payload))
	copy(buf[diskHeaderSize:], payload)

	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	// Atomic single-writer protocol: a temp file in the same directory,
	// fully written and closed, then renamed over the final name. Readers
	// see either the whole entry or none of it; racing writers for the
	// same key rename identical bytes.
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
