package profiler

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unicode/utf8"

	"blackforest/internal/runcache"
)

// jsonRoundTrip is the earlier cache-entry codec, kept as the oracle the
// binary layout must agree with: Go's float64 JSON encoding is
// shortest-exact, so it round-trips every finite float, and nil and empty
// maps and slices come back as they went in.
func jsonRoundTrip(p *Profile) (*Profile, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	var q Profile
	if err := json.Unmarshal(b, &q); err != nil {
		return nil, err
	}
	return &q, nil
}

// fuzzSource turns fuzz bytes into profile fields; an exhausted source
// yields zeros.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSource) f64() float64 {
	switch sel := s.byte(); sel % 16 {
	case 0:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
			math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, -1e-300}[sel/16%8]
	default:
		var raw [8]byte
		for i := range raw {
			raw[i] = s.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
}

func (s *fuzzSource) str() string {
	n := int(s.byte() % 12)
	out := make([]byte, n)
	for i := range out {
		out[i] = s.byte()
	}
	return string(out)
}

// count returns -1 (nil), 0 (empty) or a small entry count.
func (s *fuzzSource) count() int {
	c := s.byte()
	switch c % 4 {
	case 0:
		return -1
	case 1:
		return 0
	default:
		return 1 + int(c/4%6)
	}
}

func (s *fuzzSource) floatMap() map[string]float64 {
	n := s.count()
	if n < 0 {
		return nil
	}
	m := make(map[string]float64)
	for i := 0; i < n; i++ {
		m[s.str()] = s.f64()
	}
	return m
}

func (s *fuzzSource) profile() *Profile {
	p := &Profile{Workload: s.str(), Device: s.str()}
	p.Characteristics = s.floatMap()
	p.Metrics = s.floatMap()
	p.TimeMS, p.ModelTimeMS, p.PowerW, p.EnergyMJ = s.f64(), s.f64(), s.f64(), s.f64()
	p.Launches = int(int64(binary.LittleEndian.Uint64([]byte{s.byte(), s.byte(), 0, 0, 0, 0, 0, s.byte()})))
	if n := s.count(); n >= 0 {
		p.Bottlenecks = make(map[string]int)
		for i := 0; i < n; i++ {
			p.Bottlenecks[s.str()] = int(s.byte()) - 128
		}
	}
	p.Cycles = s.f64()
	b := &p.Breakdown
	b.IssueCycles, b.MemLatencyCycles, b.BarrierCycles = s.f64(), s.f64(), s.f64()
	b.SharedReplayCycles, b.UncoalescedCycles, b.AtomicCycles = s.f64(), s.f64(), s.f64()
	p.ComputeOps, p.DRAMBytes = s.f64(), s.f64()
	if n := s.count(); n >= 0 {
		p.Dropped = make([]string, n)
		for i := range p.Dropped {
			p.Dropped[i] = s.str()
		}
	}
	return p
}

// validUTF8 reports whether every string of p is valid UTF-8. JSON
// replaces each invalid byte with U+FFFD, so only then is its round trip
// the identity; the binary layout keeps the bytes as they are.
func validUTF8(p *Profile) bool {
	strs := append([]string{p.Workload, p.Device}, p.Dropped...)
	for k := range p.Characteristics {
		strs = append(strs, k)
	}
	for k := range p.Metrics {
		strs = append(strs, k)
	}
	for k := range p.Bottlenecks {
		strs = append(strs, k)
	}
	for _, s := range strs {
		if !utf8.ValidString(s) {
			return false
		}
	}
	return true
}

// decodeCanonical decodes b, which need not be a valid entry. A payload
// the decoder accepts must be the one encoding of what it decodes to.
func decodeCanonical(t *testing.T, b []byte) (*Profile, error) {
	t.Helper()
	p, err := decodeProfile(b)
	if err != nil {
		return nil, err
	}
	again, err := encodeProfile(p)
	if err != nil {
		t.Fatalf("decoded profile does not encode: %v", err)
	}
	if !bytes.Equal(again, b) {
		t.Fatalf("decoder accepted a payload that is not the encoding of its profile:\n%x\n%x", b, again)
	}
	return p, nil
}

// FuzzProfileCodecMatchesJSON checks the binary cache-entry layout
// against the JSON codec it replaced: encoding fails exactly where
// json.Marshal fails (non-finite floats), and decode(encode(p)) equals
// p's JSON round trip (and p itself). Every strict prefix of an encoding,
// the encoding with a trailing byte, and the encoding with any four bytes
// overwritten by a huge length prefix must fail to decode, or decode to
// a profile whose encoding they are; the fuzz bytes themselves are also
// decoded as a payload.
func FuzzProfileCodecMatchesJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05reduce\x06GTX580\x02\x03n\x01\x00\x00\x00\x00\x00\x00\x10\x40\x01\x00\x11\x22\x33\x44\x55\x66\x77\x3f"))
	f.Add(bytes.Repeat([]byte{0x0a, 0x41, 0x42, 0x43, 0x07}, 40))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x10, 0x20, 0x30})
	f.Add([]byte{0x03, 0xff, 0xfe, 0xfd, 0x00, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeCanonical(t, data)

		src := &fuzzSource{b: data}
		p := src.profile()
		bin, errBin := encodeProfile(p)
		want, errJSON := jsonRoundTrip(p)
		if (errBin == nil) != (errJSON == nil) {
			t.Fatalf("binary encode error %v, JSON error %v", errBin, errJSON)
		}
		if errBin != nil {
			return
		}
		got, err := decodeCanonical(t, bin)
		if err != nil {
			t.Fatalf("decoding an encoded profile: %v", err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip changed the profile:\n got %#v\nwant %#v", got, p)
		}
		if validUTF8(p) && !reflect.DeepEqual(got, want) {
			t.Fatalf("binary and JSON round trips differ:\nbinary %#v\n  JSON %#v", got, want)
		}

		for k := 0; k < len(bin); k++ {
			if _, err := decodeProfile(bin[:k]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte entry decoded", k, len(bin))
			}
		}
		if _, err := decodeProfile(append(bin[:len(bin):len(bin)], 0)); err == nil {
			t.Fatal("an entry with a trailing byte decoded")
		}
		mut := make([]byte, len(bin))
		for k := 0; k+4 <= len(bin); k++ {
			copy(mut, bin)
			binary.LittleEndian.PutUint32(mut[k:], math.MaxUint32-1)
			decodeCanonical(t, mut)
		}
	})
}

// TestEncodeProfileRefusesNonFinite: a profile JSON cannot hold is not
// cached in the binary layout either, wherever the float sits.
func TestEncodeProfileRefusesNonFinite(t *testing.T) {
	for _, p := range []*Profile{
		{TimeMS: math.NaN()},
		{Metrics: map[string]float64{"ipc": math.Inf(1)}},
		{Characteristics: map[string]float64{"n": math.Inf(-1)}},
	} {
		if _, err := encodeProfile(p); err == nil {
			t.Errorf("encoded %+v", p)
		}
		if _, err := json.Marshal(p); err == nil {
			t.Errorf("JSON encoded %+v", p)
		}
	}
}

// TestDecodeProfileHugePrefixAllocatesLittle: a length or count prefix
// near 2^32 in a short payload is refused before anything is allocated
// for it.
func TestDecodeProfileHugePrefixAllocatesLittle(t *testing.T) {
	good, err := encodeProfile(&Profile{Workload: "w", Device: "d", Metrics: map[string]float64{"a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Offsets of the workload length, the Characteristics count and the
	// Metrics count.
	for _, off := range []int{0, 5 + 5, 5 + 5 + 4} {
		bad := bytes.Clone(good)
		binary.LittleEndian.PutUint32(bad[off:], math.MaxUint32)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeProfile(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("offset %d: oversized prefix decoded", off)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Fatalf("offset %d: decoding allocated %d bytes", off, grew)
		}
	}
}

// TestCorruptPayloadInValidFrameIsBadEntry: a payload the decoder refuses,
// inside a frame whose length and checksum are right, is a bad entry: the
// lookup misses, BadEntries counts it and the file is removed.
func TestCorruptPayloadInValidFrameIsBadEntry(t *testing.T) {
	p := &Profile{Workload: "w", Device: "d", Metrics: map[string]float64{"ipc": 1.5}, Dropped: []string{}}
	payload, err := encodeProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	huge := bytes.Clone(payload)
	binary.LittleEndian.PutUint32(huge[10:], math.MaxUint32) // the Characteristics count
	for name, bad := range map[string][]byte{
		"truncated": payload[:len(payload)-1],
		"trailing":  append(bytes.Clone(payload), 7),
		"huge":      huge,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewRunCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			var key runcache.Key
			key[0] = 1
			c.Put(key, p)
			path := filepath.Join(dir, key.String()+".bfrc")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(bad)
			frame := append(bytes.Clone(raw[:8]), make([]byte, 16)...)
			binary.LittleEndian.PutUint64(frame[8:], uint64(len(bad)))
			binary.LittleEndian.PutUint64(frame[16:], h.Sum64())
			if err := os.WriteFile(path, append(frame, bad...), 0o644); err != nil {
				t.Fatal(err)
			}
			reopened, err := NewRunCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := reopened.Get(key); ok {
				t.Fatal("a corrupt payload was served")
			}
			if s := reopened.Stats(); s.BadEntries != 1 || s.DiskHits != 0 {
				t.Fatalf("stats %+v, want one bad entry and no disk hit", s)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("bad entry left on disk: %v", err)
			}
		})
	}
}
