package gpusim

import (
	"strings"
	"testing"
	"testing/quick"
)

// oneWarp launches kernel as a single 32-thread block on dev.
func oneWarp(dev *Device, kernel KernelFunc) (LaunchResult, error) {
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: WarpSize, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 4096}
	return NewSimulator(dev).Launch(cfg, kernel, LaunchOptions{})
}

// FuzzSharedAccessMatchesSharedLoad checks that a precomputed access
// charges exactly the counters of the per-call form, for random masks,
// offsets drawn from a small word range (so lanes collide and broadcast)
// and 16- or 32-bank devices.
func FuzzSharedAccessMatchesSharedLoad(f *testing.F) {
	f.Add(uint32(0xffffffff), uint64(1), uint8(31), false)
	f.Add(uint32(0x0000ffff), uint64(2), uint8(3), true)
	f.Add(uint32(0), uint64(3), uint8(255), false)
	f.Add(uint32(0x80000001), uint64(4), uint8(0), true)
	f.Add(uint32(0xaaaaaaaa), uint64(5), uint8(64), true)
	f.Fuzz(func(t *testing.T, mask uint32, seed uint64, span uint8, banks16 bool) {
		dev, err := LookupDevice("GTX580")
		if err != nil {
			t.Fatal(err)
		}
		if banks16 {
			dev.SharedBanks = 16
		}
		var offs [WarpSize]uint32
		x := seed
		for l := range offs {
			x = x*6364136223846793005 + 1442695040888963407
			offs[l] = uint32(x>>33) % (4 * (uint32(span) + 1))
		}
		m := Mask(mask)
		perCall, err := oneWarp(dev, eachWarp(func(w *Warp) {
			w.SharedLoad(m, &offs)
			w.SharedStore(m, &offs)
		}))
		if err != nil {
			t.Fatal(err)
		}
		a := NewSharedAccess(dev, m, &offs)
		handle, err := oneWarp(dev, eachWarp(func(w *Warp) {
			w.SharedLoadAt(a)
			w.SharedStoreAt(a)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if handle.Counters != perCall.Counters {
			t.Fatalf("mask %#x offsets %v banks %d:\nhandle   %+v\nper-call %+v",
				mask, offs, dev.SharedBanks, handle.Counters, perCall.Counters)
		}
	})
}

func TestSharedAccessOnWrongDeviceFailsLaunch(t *testing.T) {
	dev16, dev32 := gtx580(t), gtx580(t)
	dev16.SharedBanks = 16
	var offs [WarpSize]uint32
	for l := range offs {
		offs[l] = uint32(64 * l) // 16 words apart: 32-way on 16 banks, 16-way on 32
	}
	for _, charge := range []func(*Warp, SharedAccess){(*Warp).SharedLoadAt, (*Warp).SharedStoreAt} {
		for _, mask := range []Mask{FullMask(), 0} {
			a := NewSharedAccess(dev16, mask, &offs)
			_, err := oneWarp(dev32, eachWarp(func(w *Warp) { charge(w, a) }))
			if err == nil || !strings.Contains(err.Error(), "16 banks") {
				t.Fatalf("mask %#x: 16-bank access on a 32-bank device: err = %v, want a launch error", uint32(mask), err)
			}
		}
	}
	var zero SharedAccess
	if _, err := oneWarp(dev32, eachWarp(func(w *Warp) { w.SharedLoadAt(zero) })); err == nil {
		t.Fatal("charging an unbuilt SharedAccess did not fail the launch")
	}
}

func TestSharedAccessZeroMaskChargesNothing(t *testing.T) {
	dev := gtx580(t)
	var offs [WarpSize]uint32
	a := NewSharedAccess(dev, 0, &offs)
	handle, err := oneWarp(dev, eachWarp(func(w *Warp) {
		w.SharedLoadAt(a)
		w.SharedStoreAt(a)
	}))
	if err != nil {
		t.Fatal(err)
	}
	perCall, err := oneWarp(dev, eachWarp(func(w *Warp) {
		w.SharedLoad(0, &offs)
		w.SharedStore(0, &offs)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if handle.Counters != (Counters{}) || perCall.Counters != (Counters{}) {
		t.Fatalf("zero mask charged: handle %+v, per-call %+v", handle.Counters, perCall.Counters)
	}
}

// TestSpanCountMatchesCoalesce128 checks GlobalStore's derivation of the
// 128-byte transaction count from the 32-byte segments against
// coalescing the same access at 128 bytes.
func TestSpanCountMatchesCoalesce128(t *testing.T) {
	var buf [64]uint64
	prop := func(mask uint32, base uint64, stride uint16, size uint8) bool {
		var addrs [WarpSize]uint64
		for l := range addrs {
			addrs[l] = base%(1<<20) + uint64(l)*uint64(stride%512)
		}
		accessBytes := []uint32{1, 4, 8, 16}[size%4]
		want := len(coalesce(buf[:0], Mask(mask), &addrs, accessBytes, 128))
		return spanCount(coalesce(buf[:0], Mask(mask), &addrs, accessBytes, 32)) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
