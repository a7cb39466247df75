package kernels

import (
	"testing"
)

func TestTransposeFunctionalAllVariants(t *testing.T) {
	for variant := 0; variant <= 2; variant++ {
		for _, n := range []int{32, 64, 128} {
			tr := &Transpose{Variant: variant, N: n, Seed: uint64(variant*100 + n)}
			runFull(t, "GTX580", tr)
			want := CPUTranspose(tr.In(), n)
			got := tr.Out()
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("transpose%d n=%d: out[%d] = %v, want %v", variant, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTransposeOnKepler(t *testing.T) {
	tr := &Transpose{Variant: 2, N: 64, Seed: 5}
	runFull(t, "K20m", tr)
	want, got := CPUTranspose(tr.In(), 64), tr.Out()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransposeValidation(t *testing.T) {
	dev := mustDevice(t, "GTX580")
	for i, tr := range []*Transpose{{Variant: 3, N: 64}, {Variant: 0, N: 0}, {Variant: 0, N: 48}} {
		if _, err := tr.Plan(dev); err == nil {
			t.Errorf("case %d accepted: %+v", i, tr)
		}
	}
}

func TestTransposeCounterSignatures(t *testing.T) {
	// The SDK optimization ladder, mechanistically:
	//   naive     — uncoalesced stores (many store transactions)
	//   coalesced — clean stores but 32-way shared bank conflicts
	//   padded    — neither
	profile := func(v int) map[string]float64 {
		return runFull(t, "GTX580", &Transpose{Variant: v, N: 256, Seed: 1}).Metrics
	}
	naive := profile(0)
	coalesced := profile(1)
	padded := profile(2)

	// Naive writes one transaction per lane; tiled variants coalesce.
	if naive["global_store_transaction"] < 8*coalesced["global_store_transaction"] {
		t.Fatalf("naive stores %v vs coalesced %v: expected ≥8x",
			naive["global_store_transaction"], coalesced["global_store_transaction"])
	}
	// The unpadded tile conflicts hard; the padded one not at all.
	if coalesced["shared_replay_overhead"] <= 0 {
		t.Fatal("unpadded tile shows no bank conflicts")
	}
	if padded["shared_replay_overhead"] != 0 {
		t.Fatalf("padded tile still conflicts: %v", padded["shared_replay_overhead"])
	}
	// 32-way conflict: ~31 replays per shared load in the store phase.
	if conflicts := coalesced["l1_shared_bank_conflict"]; conflicts < 100 {
		t.Fatalf("expected heavy conflicts, got %v", conflicts)
	}
}

func TestTransposeOptimizationLadder(t *testing.T) {
	time := func(v int) float64 {
		return runFull(t, "GTX580", &Transpose{Variant: v, N: 512, Seed: 2}).TimeMS
	}
	naive, coalesced, padded := time(0), time(1), time(2)
	if !(naive > coalesced && coalesced > padded) {
		t.Fatalf("optimization ladder broken: naive=%v coalesced=%v padded=%v",
			naive, coalesced, padded)
	}
}
