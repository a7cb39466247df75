package experiments

import (
	"bytes"
	"testing"
)

// TestEngineDedupAcrossExperiments runs two experiments that collect the
// same matmul sweep (fig5's problem scaling and the power extension)
// against one shared engine: the second experiment's collection must be
// served entirely from the cache, and every rendering must be
// byte-identical to an engine-less run.
func TestEngineDedupAcrossExperiments(t *testing.T) {
	o := Options{Scale: Quick, Seed: 1}

	base, err := RunMatMulPrediction(o)
	if err != nil {
		t.Fatal(err)
	}
	var baseOut bytes.Buffer
	if err := base.Render(&baseOut); err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	oe := o
	oe.Engine = eng

	cached, err := RunMatMulPrediction(oe)
	if err != nil {
		t.Fatal(err)
	}
	var cachedOut bytes.Buffer
	if err := cached.Render(&cachedOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseOut.Bytes(), cachedOut.Bytes()) {
		t.Fatal("engine-backed run rendered different output than standalone run")
	}
	runs := len(MatMulSweep(o))
	if s := eng.Stats(); s.Misses != int64(runs) || s.Hits() != 0 {
		t.Fatalf("first collection stats = %+v, want %d misses and no hits", s, runs)
	}

	// The power extension collects the same sweep with the same options:
	// zero new simulations.
	if _, err := RunPowerPrediction(oe); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Misses != int64(runs) || s.Hits() != int64(runs) {
		t.Fatalf("after power extension stats = %+v, want %d misses and %d hits", s, runs, runs)
	}
}

// TestEngineDistinguishesSeeds: fig7 collects the matmul sweep on the
// target device under a derived seed — those runs must not collide with
// the training device's entries.
func TestEngineDistinguishesSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("collects two devices' sweeps")
	}
	o := Options{Scale: Quick, Seed: 1}
	eng, err := NewEngine(EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	oe := o
	oe.Engine = eng

	if _, err := RunHWScalingMM(oe); err != nil {
		t.Fatal(err)
	}
	runs := len(MatMulSweep(o))
	if s := eng.Stats(); s.Misses != int64(2*runs) || s.Hits() != 0 {
		t.Fatalf("fig7 stats = %+v, want %d distinct simulations", s, 2*runs)
	}
	// fig5 reuses the training half of fig7's collection.
	if _, err := RunMatMulPrediction(oe); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Hits() != int64(runs) {
		t.Fatalf("after fig5 stats = %+v, want %d hits", s, runs)
	}
}
