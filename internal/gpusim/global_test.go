package gpusim

import (
	"slices"
	"testing"
)

// globalOp is one warp global access of a differential run: a load or a
// store of the pattern at base.
type globalOp struct {
	base  uint64
	store bool
}

// globalRun charges ops on a fresh simulator of dev as a single one-warp
// block, through the per-call path (a == nil) or through the handle a,
// and returns the simulator with its counters.
func globalRun(t *testing.T, dev *Device, mask Mask, offs *[WarpSize]uint64, accessBytes uint32, a *GlobalAccess, ops []globalOp) (*Simulator, Counters) {
	t.Helper()
	sim := NewSimulator(dev)
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: WarpSize, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	res, err := sim.Launch(cfg, eachWarp(func(w *Warp) {
		for _, op := range ops {
			switch {
			case a != nil && op.store:
				w.GlobalStoreAt(a, op.base)
			case a != nil:
				w.GlobalLoadAt(a, op.base)
			default:
				var addrs [WarpSize]uint64
				for l, off := range offs {
					addrs[l] = op.base + off
				}
				if op.store {
					w.GlobalStore(mask, &addrs, accessBytes)
				} else {
					w.GlobalLoad(mask, &addrs, accessBytes)
				}
			}
		}
	}), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sim, res.Counters
}

// probeCaches runs the same probe on sim through the per-call GlobalLoad:
// for every address the ops touched, in reverse order, one full-warp load
// of 32 lines that alias it in the L1 set and one of 32 that alias it in
// the L2 set. Each evicts in LRU order, so the probe's counters differ
// when the caches held different lines or the same lines in a different
// order.
func probeCaches(t *testing.T, sim *Simulator, mask Mask, offs *[WarpSize]uint64, ops []globalOp) Counters {
	t.Helper()
	l1Stride := sim.l1s[0].numSets * sim.l1s[0].lineSize
	l2Stride := sim.l2.numSets * sim.l2.lineSize
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: WarpSize, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	res, err := sim.Launch(cfg, eachWarp(func(w *Warp) {
		for i := len(ops) - 1; i >= 0; i-- {
			for lane := WarpSize - 1; lane >= 0; lane-- {
				if !mask.Active(lane) {
					continue
				}
				at := ops[i].base + offs[lane]
				for _, stride := range []uint64{l1Stride, l2Stride} {
					var addrs [WarpSize]uint64
					for l := range addrs {
						addrs[l] = at + uint64(l)*stride
					}
					w.GlobalLoad(FullMask(), &addrs, 4)
				}
			}
		}
	}), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Counters
}

// sameCaches reports whether two simulators' caches hold the same lines
// in the same LRU order.
func sameCaches(a, b *Simulator) bool {
	same := func(x, y *cache) bool { return slices.Equal(x.fill, y.fill) && slices.Equal(x.tags, y.tags) }
	if !same(a.l2, b.l2) {
		return false
	}
	for i := range a.l1s {
		if !same(a.l1s[i], b.l1s[i]) {
			return false
		}
	}
	return true
}

// checkGlobalAccess requires the handle to charge ops exactly as the
// per-call path does, and to leave the caches in the same state.
func checkGlobalAccess(t *testing.T, dev *Device, mask Mask, offs *[WarpSize]uint64, accessBytes uint32, ops []globalOp) {
	t.Helper()
	simCall, perCall := globalRun(t, dev, mask, offs, accessBytes, nil, ops)
	simAt, handle := globalRun(t, dev, mask, offs, accessBytes, NewGlobalAccess(mask, offs, accessBytes), ops)
	if handle != perCall {
		t.Fatalf("%s mask %#x bytes %d offsets %v ops %v:\nhandle   %+v\nper-call %+v",
			dev.Name, uint32(mask), accessBytes, *offs, ops, handle, perCall)
	}
	if !sameCaches(simAt, simCall) {
		t.Fatalf("%s mask %#x bytes %d offsets %v ops %v: cache state differs", dev.Name, uint32(mask), accessBytes, *offs, ops)
	}
	if pa, pc := probeCaches(t, simAt, mask, offs, ops), probeCaches(t, simCall, mask, offs, ops); pa != pc {
		t.Fatalf("%s mask %#x bytes %d offsets %v ops %v: probe after handle %+v, after per-call %+v",
			dev.Name, uint32(mask), accessBytes, *offs, ops, pa, pc)
	}
}

// FuzzGlobalAccessMatchesGlobalLoad checks that a precomputed global
// access charges exactly the counters of the per-call GlobalLoad and
// GlobalStore, and leaves the caches as they do, for random masks, lane
// byte offsets (aligned or not, colliding or scattered), access sizes and
// bases of every alignment, on the L1 path (GTX580) and the L2-only path
// (K20m). Each input charges loads and stores at four bases, so the
// patterns of several alignments meet in the caches.
func FuzzGlobalAccessMatchesGlobalLoad(f *testing.F) {
	f.Add(uint32(0xffffffff), uint64(1), uint64(0), uint16(31), uint8(1), false)
	f.Add(uint32(0x0000ffff), uint64(2), uint64(68), uint16(4000), uint8(1), true)
	f.Add(uint32(0), uint64(3), uint64(127), uint16(65535), uint8(0), false)
	f.Add(uint32(0x80000001), uint64(4), uint64(1<<30+36), uint16(3), uint8(3), true)
	f.Add(uint32(0xaaaaaaaa), uint64(5), uint64(4093), uint16(600), uint8(2), false)
	f.Add(uint32(0x00000001), uint64(6), uint64(6<<30+64), uint16(0), uint8(1), true)
	f.Fuzz(func(t *testing.T, mask uint32, seed, base uint64, span uint16, size uint8, kepler bool) {
		name := "GTX580"
		if kepler {
			name = "K20m"
		}
		dev, err := LookupDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		x := seed
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x >> 33
		}
		var offs [WarpSize]uint64
		for l := range offs {
			offs[l] = next() % (4*uint64(span) + 4)
		}
		base %= 1 << 40
		ops := make([]globalOp, 4)
		for i := range ops {
			ops[i] = globalOp{base: base + next()%4096, store: next()%2 == 1}
		}
		checkGlobalAccess(t, dev, Mask(mask), &offs, []uint32{1, 4, 8, 16}[size%4], ops)
	})
}

// TestGlobalAccessEveryAlignment charges the lane patterns the kernels
// use — a row of consecutive words, a column of one word per matrix row,
// one lane alone — and one whose lanes descend through lines that share
// every cache's set (so LRU order shows the order of the segments), at a
// base of every alignment modulo 128 bytes, on both load paths.
func TestGlobalAccessEveryAlignment(t *testing.T) {
	var row, column, aliased [WarpSize]uint64
	for l := range row {
		row[l] = 4 * uint64(l)
		column[l] = 4 * 513 * uint64(l)
		aliased[l] = 98304 * uint64(WarpSize-1-l) // a multiple of both devices' L1 and L2 set strides
	}
	patterns := []struct {
		mask Mask
		offs *[WarpSize]uint64
	}{
		{FullMask(), &row}, {MaskFirstN(16), &row}, {MaskFirstN(16), &column}, {MaskFirstN(1), &row},
		{MaskFirstN(8), &aliased},
	}
	for _, dev := range []*Device{gtx580(t), k20m(t)} {
		for _, p := range patterns {
			for r := uint64(0); r < 128; r++ {
				base := 6<<30 + 5*128 + r
				ops := []globalOp{{base, false}, {base, true}, {base + 4*513, false}, {base + 4*513, true}}
				checkGlobalAccess(t, dev, p.mask, p.offs, 4, ops)
			}
		}
	}
}

// TestGlobalAccessZeroMaskChargesNothing: an access with no active lane
// issues nothing on either path.
func TestGlobalAccessZeroMaskChargesNothing(t *testing.T) {
	var offs [WarpSize]uint64
	for _, dev := range []*Device{gtx580(t), k20m(t)} {
		ops := []globalOp{{64, false}, {64, true}}
		if _, c := globalRun(t, dev, 0, &offs, 4, NewGlobalAccess(0, &offs, 4), ops); c != (Counters{}) {
			t.Fatalf("%s: zero mask charged %+v", dev.Name, c)
		}
		if _, c := globalRun(t, dev, 0, &offs, 4, nil, ops); c != (Counters{}) {
			t.Fatalf("%s: zero mask charged %+v on the per-call path", dev.Name, c)
		}
	}
}
