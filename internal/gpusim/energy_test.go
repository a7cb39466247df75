package gpusim

import "testing"

func TestEnergyModelBounds(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 64, GridDimY: 1, BlockDimX: 256, BlockDimY: 1, RegsPerThread: 12, SharedMemPerBlock: 1024}
	res, err := sim.Launch(cfg, eachWarp(func(w *Warp) {
		var addrs [WarpSize]uint64
		for l := range addrs {
			addrs[l] = uint64(4 * l)
		}
		for i := 0; i < 50; i++ {
			w.GlobalLoad(FullMask(), &addrs, 4)
			w.FloatOps(FullMask(), 10)
		}
	}), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyMJ <= 0 {
		t.Fatal("no energy accounted")
	}
	if res.AvgPowerW < d.IdleWatts || res.AvgPowerW > d.TDPWatts {
		t.Fatalf("power %v W outside [idle %v, TDP %v]", res.AvgPowerW, d.IdleWatts, d.TDPWatts)
	}
}

func TestEnergyGrowsWithTraffic(t *testing.T) {
	d, _ := LookupDevice("GTX580")
	cfg := LaunchConfig{GridDimX: 16, GridDimY: 1, BlockDimX: 64, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 256}
	run := func(loads int) LaunchResult {
		sim := NewSimulator(d)
		res, err := sim.Launch(cfg, func(b *Block) {
			bx, _ := b.BlockIdx()
			b.ForEachWarp(func(w *Warp) {
				var addrs [WarpSize]uint64
				for i := 0; i < loads; i++ {
					for l := range addrs {
						// Streaming addresses: every load misses.
						addrs[l] = uint64(bx)<<24 | uint64(i*2048+4*l)
					}
					w.GlobalLoad(FullMask(), &addrs, 4)
				}
			})
		}, LaunchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(5)
	big := run(200)
	if big.EnergyMJ <= small.EnergyMJ {
		t.Fatalf("40x more DRAM traffic did not increase energy: %v vs %v mJ",
			big.EnergyMJ, small.EnergyMJ)
	}
	// The busier kernel should also draw more average power.
	if big.AvgPowerW <= small.AvgPowerW {
		t.Fatalf("power did not grow with intensity: %v vs %v W", big.AvgPowerW, small.AvgPowerW)
	}
}

func TestPowerCappedAtTDP(t *testing.T) {
	// An absurdly dense kernel must saturate at the TDP, not exceed it.
	d, _ := LookupDevice("K20m")
	sim := NewSimulator(d)
	cfg := LaunchConfig{GridDimX: 128, GridDimY: 1, BlockDimX: 256, BlockDimY: 1, RegsPerThread: 16, SharedMemPerBlock: 512}
	res, err := sim.Launch(cfg, eachWarp(func(w *Warp) {
		var addrs [WarpSize]uint64
		for i := 0; i < 100; i++ {
			for l := range addrs {
				addrs[l] = uint64(w.LinearTID(l)*128 + i*1<<20)
			}
			w.GlobalLoad(FullMask(), &addrs, 4)
			w.GlobalStore(FullMask(), &addrs, 4)
		}
	}), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgPowerW > d.TDPWatts+1e-9 {
		t.Fatalf("power %v exceeds TDP %v", res.AvgPowerW, d.TDPWatts)
	}
}
