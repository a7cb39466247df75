package profiler_test

import (
	"testing"

	"blackforest/internal/core"
	"blackforest/internal/gpusim"
	"blackforest/internal/kernels"
	"blackforest/internal/profiler"
)

// The frame tabulator lives in core next to the completeness policy;
// these tests pin its contract for the profiles this package produces.

func TestToFrame(t *testing.T) {
	p := profiler.New(testDevice(t), profiler.Options{MaxSimBlocks: 4, NoiseSigma: -1})
	var profiles []*profiler.Profile
	for _, size := range []int{32, 64, 96} {
		prof, err := p.Run(&kernels.MatMul{N: size, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, prof)
	}
	frame, _, err := core.Tabulate(profiles, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frame.NumRows() != 3 {
		t.Fatalf("frame rows %d", frame.NumRows())
	}
	if !frame.Has("time_ms") || !frame.Has("size") || !frame.Has("inst_executed") {
		t.Fatalf("frame schema missing columns: %v", frame.Names())
	}
	if _, _, err := core.Tabulate(nil, 0); err == nil {
		t.Fatal("empty profile list accepted")
	}
}

func TestToFrameRejectsMixedDevices(t *testing.T) {
	k, err := gpusim.LookupDevice("K20m")
	if err != nil {
		t.Fatal(err)
	}
	var profiles []*profiler.Profile
	for _, dev := range []*gpusim.Device{testDevice(t), k} {
		prof, err := profiler.New(dev, profiler.Options{MaxSimBlocks: 4, NoiseSigma: -1}).Run(&kernels.MatMul{N: 32, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, prof)
	}
	if _, _, err := core.Tabulate(profiles, 0); err == nil {
		t.Fatal("mixed-device frame accepted")
	}
}
