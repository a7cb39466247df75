package kernels

import "testing"

func TestHistogramFunctional(t *testing.T) {
	for variant := 0; variant <= 1; variant++ {
		for _, n := range []int{100, 4096, 70000} {
			h := &Histogram{Variant: variant, N: n, Seed: uint64(variant*10 + n)}
			runFull(t, "GTX580", h)
			want := CPUHistogram(h.Input())
			got := h.Bins()
			var total uint32
			for b := range want {
				if want[b] != got[b] {
					t.Fatalf("histogram%d n=%d: bin %d = %d, want %d", variant, n, b, got[b], want[b])
				}
				total += got[b]
			}
			if int(total) != n {
				t.Fatalf("bins sum to %d, want %d", total, n)
			}
		}
	}
}

func TestHistogramSkewFunctional(t *testing.T) {
	h := &Histogram{Variant: 1, N: 50000, Skew: 0.9, Seed: 3}
	runFull(t, "GTX580", h)
	want, got := CPUHistogram(h.Input()), h.Bins()
	if want[0] < 40000 {
		t.Fatalf("skew generator weak: bin0 = %d", want[0])
	}
	for b := range want {
		if want[b] != got[b] {
			t.Fatalf("bin %d = %d, want %d", b, got[b], want[b])
		}
	}
}

func TestHistogramValidation(t *testing.T) {
	dev := mustDevice(t, "GTX580")
	cases := []*Histogram{
		{Variant: 2, N: 100},
		{Variant: 0, N: 0},
		{Variant: 0, N: 100, Skew: 1.5},
		{Variant: 0, N: 100, BlockSize: 100},
	}
	for i, h := range cases {
		if _, err := h.Plan(dev); err == nil {
			t.Errorf("case %d accepted: %+v", i, h)
		}
	}
}

func TestHistogramContentionSignatures(t *testing.T) {
	profile := func(variant int, skew float64) map[string]float64 {
		return runFull(t, "GTX580",
			&Histogram{Variant: variant, N: 1 << 16, Skew: skew, Seed: 7}).Metrics
	}

	// Skewed input concentrates updates on one bin: atomic replay
	// overhead must rise sharply versus uniform input.
	uniform := profile(0, 0)
	skewed := profile(0, 0.95)
	if skewed["atomic_replay_overhead"] < 4*uniform["atomic_replay_overhead"] {
		t.Fatalf("skew did not raise contention: %v vs %v",
			skewed["atomic_replay_overhead"], uniform["atomic_replay_overhead"])
	}

	// Privatization swaps global atomics for shared ones.
	priv := profile(1, 0)
	if priv["shared_atom_count"] == 0 {
		t.Fatal("privatized variant shows no shared atomics")
	}
	if priv["atom_count"] >= uniform["atom_count"] {
		t.Fatal("privatization did not cut global atomics")
	}
}

func TestHistogramPrivatizationWinsUnderSkew(t *testing.T) {
	time := func(variant int) float64 {
		return runFull(t, "GTX580",
			&Histogram{Variant: variant, N: 1 << 18, Skew: 0.95, Seed: 9}).TimeMS
	}
	global, private := time(0), time(1)
	if private >= global {
		t.Fatalf("privatization should win under skew: global=%v private=%v", global, private)
	}
}
