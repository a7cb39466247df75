package blackforest_test

import (
	"testing"

	"blackforest"
)

// TestPublicAPIEndToEnd drives the whole pipeline through the facade the
// way the README's quick start does: collect → analyze → importance →
// bottlenecks → problem-scaling prediction.
func TestPublicAPIEndToEnd(t *testing.T) {
	dev, err := blackforest.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	if dev.Name != "GTX580" {
		t.Fatal("device lookup wrong")
	}

	var runs []blackforest.Workload
	seed := uint64(1)
	for _, bs := range []int{128, 256} {
		for n := 1 << 12; n <= 1<<19; n *= 2 {
			seed++
			runs = append(runs, &blackforest.Reduction{Variant: 1, N: n, BlockSize: bs, Seed: seed})
		}
	}
	frame, err := blackforest.Collect(dev, runs, blackforest.CollectOptions{MaxSimBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if frame.NumRows() != len(runs) {
		t.Fatalf("collected %d rows, want %d", frame.NumRows(), len(runs))
	}

	cfg := blackforest.DefaultConfig()
	cfg.Forest.NTrees = 100
	cfg.Seed = 7
	analysis, err := blackforest.Analyze(frame, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if analysis.VarExplained < 0.3 {
		t.Fatalf("%%var explained %.2f too low for a clean sweep", analysis.VarExplained)
	}
	if len(analysis.Importance) < 15 {
		t.Fatalf("importance covers only %d predictors", len(analysis.Importance))
	}

	bns, err := analysis.Bottlenecks(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bns) != 5 {
		t.Fatalf("%d bottlenecks", len(bns))
	}

	scaler, err := blackforest.NewProblemScaler(analysis, cfg.TopK, blackforest.AutoModel)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := scaler.PredictTime(map[string]float64{"size": 300000, "block_size": 256})
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 {
		t.Fatalf("non-positive predicted time %v", pred)
	}
}

func TestDeviceNames(t *testing.T) {
	names := blackforest.DeviceNames()
	want := map[string]bool{"GTX480": true, "GTX580": true, "K20m": true}
	if len(names) != len(want) {
		t.Fatalf("devices %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected device %s", n)
		}
	}
}

func TestProfilerFacade(t *testing.T) {
	dev, err := blackforest.LookupDevice("K20m")
	if err != nil {
		t.Fatal(err)
	}
	p := blackforest.NewProfiler(dev, blackforest.ProfilerOptions{MaxSimBlocks: 8, NoiseSigma: -1})
	prof, err := p.Run(&blackforest.MatMul{N: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Device != "K20m" || prof.TimeMS <= 0 {
		t.Fatalf("profile wrong: %+v", prof)
	}
	// Kepler profile must not expose Fermi-only counters.
	if _, ok := prof.Metrics["l1_global_load_miss"]; ok {
		t.Fatal("Fermi counter leaked into Kepler profile")
	}
}

func TestInjectMachineCharacteristicsFacade(t *testing.T) {
	dev, _ := blackforest.LookupDevice("GTX480")
	var runs []blackforest.Workload
	for i, n := range []int{4096, 8192, 16384} {
		runs = append(runs, &blackforest.Reduction{Variant: 2, N: n, BlockSize: 256, Seed: uint64(i)})
	}
	frame, err := blackforest.Collect(dev, runs, blackforest.CollectOptions{MaxSimBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	out, err := blackforest.InjectMachineCharacteristics(frame, dev)
	if err != nil {
		t.Fatal(err)
	}
	col, err := out.Column("freq")
	if err != nil {
		t.Fatal(err)
	}
	if col[0] != 1.4 {
		t.Fatalf("freq %v, want 1.4", col[0])
	}
}

// TestFrameFromProfilesRejectsDegradedBatch: FrameFromProfiles has no way
// to report a Degradation, so a batch with counters lost to dropout is an
// error rather than a silently repaired frame.
func TestFrameFromProfilesRejectsDegradedBatch(t *testing.T) {
	var profiles []*blackforest.Profile
	for i := 1; i <= 5; i++ {
		x := float64(i)
		profiles = append(profiles, &blackforest.Profile{
			Device:          "GTX580",
			Characteristics: map[string]float64{"size": x},
			Metrics:         map[string]float64{"a": x, "b": x * x},
			TimeMS:          x,
		})
	}
	if _, err := blackforest.FrameFromProfiles(profiles); err != nil {
		t.Fatalf("complete batch rejected: %v", err)
	}
	delete(profiles[0].Metrics, "b")
	profiles[0].Dropped = []string{"b"}
	if _, err := blackforest.FrameFromProfiles(profiles); err == nil {
		t.Fatal("degraded batch accepted")
	}
}
