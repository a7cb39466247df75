package kernels

import (
	"math"
	"testing"
)

// The optimizer's Tunable contract, restated structurally so this package
// can assert it without importing internal/optimize.
type tunable interface {
	Params() map[string]int
	ParamDomain(name string) []int
}

// TestTunableDomainsContainCurrent: every kernel's effective parameter
// values appear in their own domains (the search enumerates domains and
// skips the current value — a current value outside its domain could
// never be restored once left).
func TestTunableDomainsContainCurrent(t *testing.T) {
	subjects := []tunable{
		&MatMul{N: 256, Seed: 1},
		&Reduction{Variant: 6, N: 4096, BlockSize: 256, Seed: 1},
		&Transpose{Variant: 0, N: 256, Seed: 1},
		&Histogram{Variant: 1, N: 4096, Seed: 1},
	}
	for _, s := range subjects {
		for name, cur := range s.Params() {
			dom := s.ParamDomain(name)
			if len(dom) == 0 {
				t.Errorf("%T: parameter %q has an empty domain", s, name)
				continue
			}
			found := false
			for _, v := range dom {
				if v == cur {
					found = true
				}
			}
			if !found {
				t.Errorf("%T: current %s=%d not in domain %v", s, name, cur, dom)
			}
		}
	}
}

// TestWithParamDoesNotMutate: WithParam returns a fresh workload and
// leaves the receiver untouched (the incumbent must stay runnable after
// candidates are derived from it).
func TestWithParamDoesNotMutate(t *testing.T) {
	m := &MatMul{N: 256, Seed: 1}
	w, err := m.WithParam("tile", 32)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tile != 0 {
		t.Fatalf("receiver mutated: Tile = %d", m.Tile)
	}
	if w.(*MatMul).Tile != 32 {
		t.Fatalf("copy not transformed: Tile = %d", w.(*MatMul).Tile)
	}

	tr := &Transpose{Variant: 1, N: 256, Seed: 1}
	w2, err := tr.WithParam("block_rows", 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rows != 0 || w2.(*Transpose).Rows != 4 {
		t.Fatalf("transpose WithParam: receiver Rows=%d, copy Rows=%d", tr.Rows, w2.(*Transpose).Rows)
	}
}

// TestWithParamRejectsUnknown: unknown parameters and illegal values
// error instead of silently passing through.
func TestWithParamRejectsUnknown(t *testing.T) {
	if _, err := (&MatMul{N: 256}).WithParam("bogus", 1); err == nil {
		t.Error("matmul accepted unknown parameter")
	}
	if _, err := (&MatMul{N: 100, Seed: 1}).WithParam("tile", 32); err == nil {
		t.Error("matmul accepted tile not dividing N")
	}
	if _, err := (&Transpose{Variant: 0, N: 256}).WithParam("tile", 32); err == nil {
		t.Error("transpose accepted unknown parameter")
	}
	if _, err := (&Histogram{Variant: 0, N: 256}).WithParam("skew", 1); err == nil {
		t.Error("histogram accepted unknown parameter")
	}
	if _, err := (&Reduction{Variant: 3, N: 4096}).WithParam("max_blocks", 128); err == nil {
		t.Error("reduction variant 3 accepted max_blocks (only the grid-strided variant 6 has it)")
	}
}

// TestTransposeBlockRowsFunctional: every legal BLOCK_ROWS geometry
// still computes the exact transpose, for all three variants.
func TestTransposeBlockRowsFunctional(t *testing.T) {
	for variant := 0; variant <= 2; variant++ {
		for _, rows := range []int{2, 4, 16, 32} {
			tr := &Transpose{Variant: variant, N: 128, Rows: rows, Seed: uint64(variant*100 + rows)}
			runFull(t, "GTX580", tr)
			want, got := CPUTranspose(tr.In(), tr.N), tr.Out()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("transpose%d rows=%d: out[%d] = %v, want %v", variant, rows, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMatMulTileUnrollFunctional: the tile-32 and explicitly-unrolled
// kernels compute the same product as the stock configuration.
func TestMatMulTileUnrollFunctional(t *testing.T) {
	cases := []MatMul{
		{N: 64, Tile: 32, Seed: 5},
		{N: 64, Tile: 16, Unroll: 4, Seed: 5},
		{N: 64, Tile: 32, Unroll: 2, Seed: 5},
		{N: 96, Tile: 16, Unroll: 1, Seed: 7},
	}
	for _, c := range cases {
		m := c
		runFull(t, "GTX580", &m)
		want, got := CPUMatMul(m.A(), m.B(), m.N), m.C()
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-3*math.Abs(float64(want[i]))+1e-4 {
				t.Fatalf("matmul n=%d tile=%d unroll=%d: C[%d] = %v, want %v",
					m.N, m.Tile, m.Unroll, i, got[i], want[i])
			}
		}
	}
}

// TestHistogramBlockSizesFunctional: non-default block sizes still
// produce the exact histogram in both variants.
func TestHistogramBlockSizesFunctional(t *testing.T) {
	for variant := 0; variant <= 1; variant++ {
		for _, bs := range []int{64, 512, 1024} {
			h := &Histogram{Variant: variant, N: 30000, BlockSize: bs, Seed: uint64(bs)}
			runFull(t, "GTX580", h)
			want, got := CPUHistogram(h.Input()), h.Bins()
			for b := range want {
				if got[b] != want[b] {
					t.Fatalf("histogram%d bs=%d: bin %d = %d, want %d", variant, bs, b, got[b], want[b])
				}
			}
		}
	}
}

// TestReductionMaxBlocksFunctional: capping the grid-strided variant's
// grid still reduces exactly (each block just covers more input).
func TestReductionMaxBlocksFunctional(t *testing.T) {
	for _, mb := range []int{32, 128, 256} {
		r := &Reduction{Variant: 6, N: 50000, BlockSize: 256, MaxBlocks: mb, Seed: uint64(mb)}
		runFull(t, "GTX580", r)
		want := CPUReduce(r.Input())
		if math.Abs(float64(r.Result-want)) > 1e-4*math.Abs(float64(want)) {
			t.Errorf("max_blocks=%d: got %v, want %v", mb, r.Result, want)
		}
	}
}

// TestDefaultCharacteristicsUnchanged: at default launch parameters the
// characteristics maps carry no tunable keys — transformed and baseline
// runs must never share an identity, but the baseline identity itself
// must stay exactly as it was before the parameters became tunable
// (noise seeds, cache keys and goldens all hang off it).
func TestDefaultCharacteristicsUnchanged(t *testing.T) {
	cases := []struct {
		w      interface{ Characteristics() map[string]float64 }
		want   []string
		descr  string
		nowant []string
	}{
		{&MatMul{N: 256, Seed: 1}, []string{"size"}, "matmul", []string{"tile", "unroll"}},
		{&MatMul{N: 256, Tile: 16, Seed: 1}, []string{"size"}, "matmul tile=16 (explicit default)", []string{"tile"}},
		{&MatMul{N: 256, Tile: 32, Seed: 1}, []string{"size", "tile"}, "matmul tile=32", nil},
		{&Transpose{Variant: 0, N: 256, Seed: 1}, []string{"size"}, "transpose", []string{"block_rows"}},
		{&Transpose{Variant: 0, N: 256, Rows: 8, Seed: 1}, []string{"size"}, "transpose rows=8 (explicit default)", []string{"block_rows"}},
		{&Transpose{Variant: 0, N: 256, Rows: 4, Seed: 1}, []string{"size", "block_rows"}, "transpose rows=4", nil},
		{&Histogram{Variant: 1, N: 4096, Seed: 1}, []string{"size", "skew"}, "histogram", []string{"block_size"}},
		{&Histogram{Variant: 1, N: 4096, BlockSize: 256, Seed: 1}, []string{"size", "skew"}, "histogram bs=256 (explicit default)", []string{"block_size"}},
		{&Histogram{Variant: 1, N: 4096, BlockSize: 128, Seed: 1}, []string{"size", "skew", "block_size"}, "histogram bs=128", nil},
		{&Reduction{Variant: 6, N: 4096, BlockSize: 256, Seed: 1}, []string{"size", "block_size"}, "reduce6", []string{"max_blocks"}},
		{&Reduction{Variant: 6, N: 4096, BlockSize: 256, MaxBlocks: 64, Seed: 1}, []string{"size", "block_size"}, "reduce6 mb=64 (explicit default)", []string{"max_blocks"}},
		{&Reduction{Variant: 6, N: 4096, BlockSize: 256, MaxBlocks: 128, Seed: 1}, []string{"size", "block_size", "max_blocks"}, "reduce6 mb=128", nil},
	}
	for _, c := range cases {
		chars := c.w.Characteristics()
		for _, k := range c.want {
			if _, ok := chars[k]; !ok {
				t.Errorf("%s: characteristics missing %q: %v", c.descr, k, chars)
			}
		}
		for _, k := range c.nowant {
			if _, ok := chars[k]; ok {
				t.Errorf("%s: characteristics leaked default %q: %v", c.descr, k, chars)
			}
		}
		if len(chars) != len(c.want) {
			t.Errorf("%s: characteristics = %v, want exactly keys %v", c.descr, chars, c.want)
		}
	}
}
