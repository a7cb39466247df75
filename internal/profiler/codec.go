package profiler

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The run cache stores a Profile in a fixed binary layout, inside the
// cache's own magic/length/checksum frame. Fields follow in declaration
// order, little endian:
//
//   - a string is its byte length (uint32) and its bytes;
//   - a float64 is its Float64bits (uint64), an int its int64 bits;
//   - a map or slice is a presence count (uint32: 0 for nil, n+1 for n
//     entries), so nil and empty ones both survive a round trip; map
//     entries follow in increasing key order, each key then its value;
//   - Breakdown is its six float64 fields in declaration order.
//
// Every Profile has exactly one encoding, and decodeProfile accepts
// nothing else: it rejects short and trailing bytes, counts larger than
// the remaining bytes can hold (before allocating by them), keys out of
// order and non-finite floats. Changing the layout or the Profile schema
// must bump profileCacheVersion.

// errNonFinite is encodeProfile's refusal of a NaN or infinite float:
// JSON, the earlier entry encoding, cannot hold one either, so exactly the
// runs it cached are cached.
var errNonFinite = errors.New("profiler: non-finite float in profile")

// errCorrupt is decodeProfile's refusal of a payload encodeProfile cannot
// have written.
var errCorrupt = errors.New("profiler: malformed cache entry")

// encodeProfile returns p's cache-entry payload.
func encodeProfile(p *Profile) ([]byte, error) {
	w := writer{b: make([]byte, 0, 256+32*(len(p.Metrics)+len(p.Characteristics)))}
	w.str(p.Workload)
	w.str(p.Device)
	writeMap(&w, p.Characteristics, (*writer).f64)
	writeMap(&w, p.Metrics, (*writer).f64)
	for _, v := range []float64{p.TimeMS, p.ModelTimeMS, p.PowerW, p.EnergyMJ} {
		w.f64(v)
	}
	w.i64(int64(p.Launches))
	writeMap(&w, p.Bottlenecks, func(w *writer, v int) { w.i64(int64(v)) })
	b := &p.Breakdown
	for _, v := range []float64{p.Cycles, b.IssueCycles, b.MemLatencyCycles, b.BarrierCycles,
		b.SharedReplayCycles, b.UncoalescedCycles, b.AtomicCycles, p.ComputeOps, p.DRAMBytes} {
		w.f64(v)
	}
	w.count(p.Dropped == nil, len(p.Dropped))
	for _, s := range p.Dropped {
		w.str(s)
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// decodeProfile revives a payload encodeProfile wrote.
func decodeProfile(b []byte) (*Profile, error) {
	r := reader{s: string(b)}
	p := &Profile{Workload: r.str(), Device: r.str()}
	p.Characteristics = readMap(&r, (*reader).f64)
	p.Metrics = readMap(&r, (*reader).f64)
	p.TimeMS, p.ModelTimeMS, p.PowerW, p.EnergyMJ = r.f64(), r.f64(), r.f64(), r.f64()
	p.Launches = int(r.i64())
	p.Bottlenecks = readMap(&r, func(r *reader) int { return int(r.i64()) })
	bd := &p.Breakdown
	p.Cycles = r.f64()
	bd.IssueCycles, bd.MemLatencyCycles, bd.BarrierCycles = r.f64(), r.f64(), r.f64()
	bd.SharedReplayCycles, bd.UncoalescedCycles, bd.AtomicCycles = r.f64(), r.f64(), r.f64()
	p.ComputeOps, p.DRAMBytes = r.f64(), r.f64()
	if n, ok := r.count(4); ok {
		p.Dropped = make([]string, n)
		for i := range p.Dropped {
			p.Dropped[i] = r.str()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.s) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(r.s))
	}
	return p, nil
}

type writer struct {
	b   []byte
	err error
}

func (w *writer) u32(v int) {
	if v < 0 || uint64(v) > math.MaxUint32 {
		w.err = fmt.Errorf("profiler: length %d does not fit a cache entry", v)
		return
	}
	w.b = binary.LittleEndian.AppendUint32(w.b, uint32(v))
}

func (w *writer) str(s string) {
	w.u32(len(s))
	w.b = append(w.b, s...)
}

func (w *writer) i64(v int64) { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v)) }

func (w *writer) f64(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.err = errNonFinite
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

// count writes a map's or slice's presence count.
func (w *writer) count(isNil bool, n int) {
	if isNil {
		w.u32(0)
		return
	}
	if uint64(n) >= math.MaxUint32 {
		w.err = fmt.Errorf("profiler: %d entries do not fit a cache entry", n)
		return
	}
	w.u32(n + 1)
}

// writeMap writes m's presence count, then its entries in increasing key
// order.
func writeMap[V any](w *writer, m map[string]V, value func(*writer, V)) {
	w.count(m == nil, len(m))
	for _, k := range sortedKeys(m) {
		w.str(k)
		value(w, m[k])
	}
}

// reader consumes a payload, held as one string: every decoded string
// (workload, device, map keys, dropped counters) is a substring of it, so
// a profile costs one copy of its payload rather than one per name. Its
// first failure sticks: every later read returns a zero value, so
// decodeProfile checks err once at the end.
type reader struct {
	s   string
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errCorrupt, what)
	}
	r.s = ""
}

func (r *reader) u32() uint32 {
	if len(r.s) < 4 {
		r.fail("truncated")
		return 0
	}
	s := r.s
	r.s = r.s[4:]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

func (r *reader) u64() uint64 {
	if len(r.s) < 8 {
		r.fail("truncated")
		return 0
	}
	lo := r.u32()
	return uint64(lo) | uint64(r.u32())<<32
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) f64() float64 {
	v := math.Float64frombits(r.u64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("non-finite float")
		return 0
	}
	return v
}

func (r *reader) str() string {
	n := r.u32()
	if uint64(n) > uint64(len(r.s)) {
		r.fail("string longer than the entry")
		return ""
	}
	s := r.s[:n]
	r.s = r.s[n:]
	return s
}

// count reads a presence count. Each of the n entries takes at least
// minSize bytes, so a count the rest of the entry cannot hold is refused
// before anything is allocated for it.
func (r *reader) count(minSize int) (n int, ok bool) {
	c := r.u32()
	if c == 0 {
		return 0, false
	}
	if uint64(c-1) > uint64(len(r.s)/minSize) {
		r.fail("count larger than the entry")
		return 0, false
	}
	return int(c - 1), true
}

// readMap reads what writeMap wrote; every value takes 8 bytes.
func readMap[V any](r *reader, value func(*reader) V) map[string]V {
	n, ok := r.count(4 + 8)
	if !ok {
		return nil
	}
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := r.str()
		if i > 0 && k <= prev {
			r.fail("map keys out of order")
		}
		m[k] = value(r)
		prev = k
	}
	return m
}
