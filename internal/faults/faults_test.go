package faults

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.FailRun(1, 0) || in.DropCounter(1, "gld_request") || in.ServeError(1) {
		t.Fatal("nil injector injected a fault")
	}
	if d := in.ServeDelay(1); d != 0 {
		t.Fatalf("nil injector delay = %v, want 0", d)
	}
	r := strings.NewReader("hello")
	if got := in.WrapReader(r, 1); got != io.Reader(r) {
		t.Fatal("nil injector wrapped the reader")
	}
	if got := in.Config(); got != (Config{}) {
		t.Fatalf("nil injector Config = %+v, want zero", got)
	}
}

func TestNewDisabledIsNil(t *testing.T) {
	if in := New(Config{Seed: 99}); in != nil {
		t.Fatal("New with no fault probabilities should return nil")
	}
	if in := New(Config{Seed: 99, LatencySpike: time.Second}); in != nil {
		t.Fatal("a bare spike with latency=0 cannot fire; want nil injector")
	}
	if in := New(Config{RunFailure: 0.5}); in == nil {
		t.Fatal("New with runfail > 0 returned nil")
	}
}

func TestDecisionsAreDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, RunFailure: 0.3, CounterDropout: 0.3, ServeError: 0.3, ServeLatency: 0.3}
	a, b := New(cfg), New(cfg)
	for id := uint64(0); id < 200; id++ {
		for attempt := 0; attempt < 3; attempt++ {
			if a.FailRun(id, attempt) != b.FailRun(id, attempt) {
				t.Fatalf("FailRun(%d, %d) differs between equal injectors", id, attempt)
			}
		}
		if a.DropCounter(id, "gld_request") != b.DropCounter(id, "gld_request") {
			t.Fatalf("DropCounter(%d) differs between equal injectors", id)
		}
		if a.ServeError(id) != b.ServeError(id) || a.ServeDelay(id) != b.ServeDelay(id) {
			t.Fatalf("serve decisions differ for request %d", id)
		}
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	a := New(Config{Seed: 1, RunFailure: 0.5})
	b := New(Config{Seed: 2, RunFailure: 0.5})
	same := 0
	for id := uint64(0); id < 512; id++ {
		if a.FailRun(id, 0) == b.FailRun(id, 0) {
			same++
		}
	}
	if same == 512 {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestAttemptsDrawIndependently(t *testing.T) {
	in := New(Config{Seed: 7, RunFailure: 0.5})
	varies := false
	for id := uint64(0); id < 64 && !varies; id++ {
		if in.FailRun(id, 0) != in.FailRun(id, 1) {
			varies = true
		}
	}
	if !varies {
		t.Fatal("attempt number does not influence the failure draw; retries could never succeed")
	}
}

func TestHitRateTracksProbability(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		in := New(Config{Seed: 3, RunFailure: p})
		hits := 0
		const n = 4000
		for id := uint64(0); id < n; id++ {
			if in.FailRun(id, 0) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.05 {
			t.Errorf("p=%g: observed hit rate %g", p, got)
		}
	}
}

func TestProbabilityExtremes(t *testing.T) {
	always := New(Config{RunFailure: 1})
	never := New(Config{RunFailure: 0, CounterDropout: 1})
	for id := uint64(0); id < 32; id++ {
		if !always.FailRun(id, 0) {
			t.Fatal("p=1 did not fire")
		}
		if never.FailRun(id, 0) {
			t.Fatal("p=0 fired")
		}
	}
}

func TestServeDelayDefaultSpike(t *testing.T) {
	in := New(Config{Seed: 5, ServeLatency: 1})
	if d := in.ServeDelay(0); d != 50*time.Millisecond {
		t.Fatalf("default spike = %v, want 50ms", d)
	}
	in = New(Config{Seed: 5, ServeLatency: 1, LatencySpike: 5 * time.Millisecond})
	if d := in.ServeDelay(0); d != 5*time.Millisecond {
		t.Fatalf("spike = %v, want 5ms", d)
	}
}

func TestReaderPassthroughWithoutCorruptModes(t *testing.T) {
	in := New(Config{Seed: 1, RunFailure: 0.5}) // enabled, but no reader faults
	r := strings.NewReader("payload")
	if got := in.WrapReader(r, 1); got != io.Reader(r) {
		t.Fatal("WrapReader wrapped despite corrupt=truncate=0")
	}
}

func TestReaderCorruptionDeterministicAndChunkLocal(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAA}, 4*corruptChunk)
	cfg := Config{Seed: 11, CorruptReads: 1} // every chunk flips one byte
	read := func(sizes []int) []byte {
		fr := New(cfg).WrapReader(bytes.NewReader(payload), 77)
		var out []byte
		buf := make([]byte, 0)
		for {
			n := sizes[len(out)%len(sizes)]
			buf = make([]byte, n)
			k, err := fr.Read(buf)
			out = append(out, buf[:k]...)
			if err != nil {
				break
			}
		}
		return out
	}
	a := read([]int{1024})
	b := read([]int{7, 130, 4096})
	if !bytes.Equal(a, b) {
		t.Fatal("corruption depends on read sizes")
	}
	flips := 0
	for i, c := range a {
		if c != 0xAA {
			flips++
			if c != 0xAA^0xff {
				t.Fatalf("byte %d corrupted to %#x, want xor 0xff", i, c)
			}
		}
	}
	if flips != 4 { // one per chunk, 4 chunks touched
		t.Fatalf("flipped %d bytes, want 4 (one per chunk)", flips)
	}
	if len(a) != len(payload) {
		t.Fatalf("read %d bytes, want %d", len(a), len(payload))
	}
}

func TestReaderTruncation(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 128<<10)
	fr := New(Config{Seed: 9, TruncateReads: 1}).WrapReader(bytes.NewReader(payload), 5)
	out, err := io.ReadAll(fr)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	if len(out) >= len(payload) || len(out) >= 64<<10 {
		t.Fatalf("truncated stream returned %d bytes", len(out))
	}
	// Same identity, same cut point.
	fr2 := New(Config{Seed: 9, TruncateReads: 1}).WrapReader(bytes.NewReader(payload), 5)
	out2, _ := io.ReadAll(fr2)
	if len(out) != len(out2) {
		t.Fatalf("cut point not deterministic: %d vs %d", len(out), len(out2))
	}
}

// TestReaderTruncatesShortStreams: with TruncateReads=1 a stream shorter
// than the 64KiB window is still cut before its end, so even a decoder
// that stops reading once a complete JSON value is buffered sees the
// damage.
func TestReaderTruncatesShortStreams(t *testing.T) {
	in := New(Config{Seed: 9, TruncateReads: 1})
	value := `{"payload":"` + strings.Repeat("x", 2000) + `"}`
	for id := uint64(0); id < 64; id++ {
		out, err := io.ReadAll(in.WrapReader(strings.NewReader(value), id))
		if err != io.ErrUnexpectedEOF || len(out) >= len(value) {
			t.Fatalf("identity %d: read %d of %d bytes, err %v", id, len(out), len(value), err)
		}
		var v map[string]string
		if err := json.NewDecoder(in.WrapReader(strings.NewReader(value), id)).Decode(&v); err == nil {
			t.Fatalf("identity %d: truncated stream decoded", id)
		}
	}
	out, err := io.ReadAll(in.WrapReader(strings.NewReader(""), 1))
	if err != io.ErrUnexpectedEOF || len(out) != 0 {
		t.Fatalf("empty stream: read %d bytes, err %v", len(out), err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []Config{
		{},
		{Seed: 42, RunFailure: 0.2},
		{Seed: 1, RunFailure: 0.25, CounterDropout: 0.1, CorruptReads: 0.01, TruncateReads: 0.02, ServeError: 0.05, ServeLatency: 0.5, LatencySpike: 25 * time.Millisecond},
		{CounterDropout: 1},
		{ServeLatency: 0.125, LatencySpike: 2 * time.Second},
	}
	for _, want := range cases {
		spec := want.String()
		got, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got != want {
			t.Fatalf("Parse(%q) = %+v, want %+v", spec, got, want)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	cases := []struct {
		spec    string
		want    Config
		wantErr bool
	}{
		{spec: "", want: Config{}},
		{spec: "off", want: Config{}},
		{spec: "  seed=7 , runfail=0.5 ", want: Config{Seed: 7, RunFailure: 0.5}},
		{spec: "dropout=1,spike=10ms,latency=0.5", want: Config{CounterDropout: 1, ServeLatency: 0.5, LatencySpike: 10 * time.Millisecond}},
		{spec: "runfail=1.5", wantErr: true},
		{spec: "runfail=-0.1", wantErr: true},
		{spec: "runfail=NaN", wantErr: true},
		{spec: "runfail", wantErr: true},
		{spec: "=0.5", wantErr: true},
		{spec: "bogus=1", wantErr: true},
		{spec: "seed=-1", wantErr: true},
		{spec: "seed=1,seed=2", wantErr: true},
		{spec: "spike=-5ms", wantErr: true},
		{spec: "spike=fast", wantErr: true},
	}
	for _, c := range cases {
		got, err := Parse(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("Parse(%q) = %+v, want error", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestHashStringDistinguishes(t *testing.T) {
	if HashString("gld_request") == HashString("gst_request") {
		t.Fatal("distinct counter names hashed equal")
	}
	if HashString("") == HashString("x") {
		t.Fatal("empty string collides with non-empty")
	}
}

func TestConcurrentUseIsSafe(t *testing.T) {
	in := New(Config{Seed: 13, RunFailure: 0.5, CounterDropout: 0.5})
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for id := uint64(0); id < 1000; id++ {
				in.FailRun(id, g)
				in.DropCounter(id, "achieved_occupancy")
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
