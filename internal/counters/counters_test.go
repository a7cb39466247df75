package counters

import (
	"fmt"
	"sort"
	"testing"

	"blackforest/internal/gpusim"
)

// Lookup returns the metadata for a counter name.
func Lookup(name string) (Meta, error) {
	for _, m := range registry {
		if m.Name == name {
			return m, nil
		}
	}
	return Meta{}, fmt.Errorf("counters: unknown counter %q", name)
}

// Available returns the names of counters exposed by the architecture,
// sorted for determinism.
func Available(arch gpusim.Arch) []string {
	var out []string
	for _, m := range registry {
		if m.availableOn(arch) {
			out = append(out, m.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Common returns counter names available on both architectures — the
// vocabulary usable for cross-architecture (hardware-scaling) models.
func Common() []string {
	var out []string
	for _, m := range registry {
		if m.OnFermi && m.OnKepler {
			out = append(out, m.Name)
		}
	}
	sort.Strings(out)
	return out
}

func TestRegistryLookup(t *testing.T) {
	m, err := Lookup("shared_replay_overhead")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Derived || !m.OnFermi || !m.OnKepler {
		t.Fatalf("metadata wrong: %+v", m)
	}
	if _, err := Lookup("nonexistent_counter"); err == nil {
		t.Fatal("unknown counter accepted")
	}
}

func TestArchitectureAvailability(t *testing.T) {
	// The §7 counter-evolution facts: Fermi has l1_shared_bank_conflict,
	// Kepler instead exposes shared_load_replay / shared_store_replay.
	fermi := Available(gpusim.Fermi)
	kepler := Available(gpusim.Kepler)
	has := func(set []string, name string) bool {
		for _, n := range set {
			if n == name {
				return true
			}
		}
		return false
	}
	if !has(fermi, "l1_shared_bank_conflict") || has(kepler, "l1_shared_bank_conflict") {
		t.Fatal("l1_shared_bank_conflict availability wrong")
	}
	if has(fermi, "shared_load_replay") || !has(kepler, "shared_load_replay") {
		t.Fatal("shared_load_replay availability wrong")
	}
	if !has(fermi, "l1_global_load_miss") || has(kepler, "l1_global_load_miss") {
		t.Fatal("l1_global_load_miss availability wrong")
	}
	common := Common()
	if has(common, "l1_shared_bank_conflict") || has(common, "shared_load_replay") {
		t.Fatal("arch-specific counters leaked into the common set")
	}
	if !has(common, "gld_request") || !has(common, "achieved_occupancy") {
		t.Fatal("common counters missing")
	}
}

func TestAllCoversTable1(t *testing.T) {
	// Every counter named in the paper's Table 1 must be registered.
	table1 := []string{
		"shared_replay_overhead", "shared_load", "shared_store",
		"inst_replay_overhead", "l1_global_load_hit", "l1_global_load_miss",
		"gld_request", "gst_request", "global_store_transaction",
		"gld_requested_throughput", "achieved_occupancy",
		"l2_read_throughput", "l2_write_transactions", "ipc",
		"issue_slot_utilization", "warp_execution_efficiency",
	}
	for _, name := range table1 {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Table 1 counter %s missing: %v", name, err)
		}
	}
}

func TestDeriveBasics(t *testing.T) {
	dev, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	s := Sample{
		Raw: gpusim.Counters{
			InstExecuted:       1000,
			InstIssued:         1200,
			ThreadInstExecuted: 1000 * 32,
			GldRequest:         100,
			GstRequest:         50,
			RequestedGldBytes:  100 * 128,
			RequestedGstBytes:  50 * 128,
			L1GlobalLoadHit:    60,
			L1GlobalLoadMiss:   40,
			SharedLoadReplay:   120,
			SharedStoreReplay:  80,
			L2ReadTransactions: 160,
		},
		Cycles:            10000,
		TimeMS:            1.0,
		AchievedOccupancy: 0.5,
		SMEfficiency:      0.9,
	}
	m := Derive(dev, s)

	if m["inst_replay_overhead"] != 0.2 {
		t.Fatalf("inst_replay_overhead %v", m["inst_replay_overhead"])
	}
	if m["shared_replay_overhead"] != 0.2 {
		t.Fatalf("shared_replay_overhead %v", m["shared_replay_overhead"])
	}
	if m["warp_execution_efficiency"] != 100 {
		t.Fatalf("warp_execution_efficiency %v", m["warp_execution_efficiency"])
	}
	if m["achieved_occupancy"] != 0.5 {
		t.Fatal("achieved_occupancy passthrough wrong")
	}
	// ipc = 1000 / 10000 cycles / 16 SMs.
	if got, want := m["ipc"], 1000.0/10000/16; got != want {
		t.Fatalf("ipc %v want %v", got, want)
	}
	// l1_shared_bank_conflict = load+store replays on Fermi.
	if m["l1_shared_bank_conflict"] != 200 {
		t.Fatalf("l1_shared_bank_conflict %v", m["l1_shared_bank_conflict"])
	}
	// Requested load throughput: 12800 B over 1 ms = 0.0128 GB/s.
	if got := m["gld_requested_throughput"]; got < 0.0127 || got > 0.0129 {
		t.Fatalf("gld_requested_throughput %v", got)
	}
	if _, ok := m["shared_load_replay"]; ok {
		t.Fatal("Kepler-only counter present on Fermi")
	}
}

func TestDeriveKeplerDropsFermiCounters(t *testing.T) {
	dev, err := gpusim.LookupDevice("K20m")
	if err != nil {
		t.Fatal(err)
	}
	m := Derive(dev, Sample{Raw: gpusim.Counters{InstExecuted: 10, SharedLoadReplay: 3}, Cycles: 100, TimeMS: 1})
	if _, ok := m["l1_global_load_miss"]; ok {
		t.Fatal("l1_global_load_miss present on Kepler")
	}
	if m["shared_load_replay"] != 3 {
		t.Fatal("shared_load_replay missing on Kepler")
	}
}

func TestDeriveZeroTimeSafe(t *testing.T) {
	dev, _ := gpusim.LookupDevice("GTX580")
	m := Derive(dev, Sample{})
	for name, v := range m {
		if v != v { // NaN check
			t.Fatalf("counter %s is NaN for empty sample", name)
		}
	}
}
