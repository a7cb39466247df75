package gpusim

import (
	"strings"
	"testing"
	"unsafe"
)

// statelessOps is the number of opcodes statelessProgram decodes: the
// stateless Warp methods, then Sync.
const statelessOps = 9

// statelessProgram returns a kernel that runs prog, one opcode per byte,
// as barrier phases: every opcode but Sync is one instruction of every
// warp in the current phase, and Sync ends the phase. Masks, offsets
// (from a small word range, so lanes collide and broadcast) and counts
// are drawn from seed, the instruction's position and the warp, so every
// block runs the same program.
func statelessProgram(dev *Device, prog []byte, seed uint64) KernelFunc {
	return func(b *Block) {
		phase := func(start, end int) {
			b.ForEachWarp(func(w *Warp) {
				for i := start; i < end; i++ {
					x := seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(w.WarpID())*0xbf58476d1ce4e5b9
					next := func() uint64 {
						x = x*6364136223846793005 + 1442695040888963407
						return x >> 16
					}
					mask := Mask(next())
					if next()%2 == 0 {
						mask &= w.ValidMask()
					}
					var offs [WarpSize]uint32
					span := uint32(next()%64) + 1
					for l := range offs {
						offs[l] = 4 * (uint32(next()) % span)
					}
					n := int(next() % 8)
					switch prog[i] % statelessOps {
					case 0:
						w.IntOps(mask, n)
					case 1:
						w.FloatOps(mask, n)
					case 2:
						w.Branch(mask, Mask(next()))
					case 3:
						w.SharedLoad(mask, &offs)
					case 4:
						w.SharedStore(mask, &offs)
					case 5:
						w.SharedLoadAt(NewSharedAccess(dev, mask, &offs))
					case 6:
						w.SharedStoreAt(NewSharedAccess(dev, mask, &offs))
					case 7:
						w.AtomicSharedAdd(mask, &offs)
					}
				}
			})
		}
		start := 0
		for i, op := range prog {
			if op%statelessOps == statelessOps-1 {
				phase(start, i)
				b.Sync()
				start = i + 1
			}
		}
		phase(start, len(prog))
	}
}

// FuzzRecordMatchesInline checks that a stateless program recorded once
// and charged per block counts exactly what running it inline in every
// block does, on 1–4 warps of any block shape, on both device models.
// Both kernels also make a global load per warp before the program, so
// the recorded charge mixes with per-block cache-dependent charges.
func FuzzRecordMatchesInline(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 8, 4, 5, 6, 7}, uint8(31), uint8(2), uint8(1), false)
	f.Add(uint64(2), []byte{3, 3, 8, 8, 5, 6}, uint8(127), uint8(0), uint8(0), true)
	f.Add(uint64(3), []byte{}, uint8(0), uint8(3), uint8(2), false)
	f.Add(uint64(4), []byte{7, 7, 7, 8, 2, 2, 0}, uint8(15), uint8(7), uint8(5), true)
	f.Add(uint64(5), []byte{8, 8, 8}, uint8(95), uint8(1), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte, threads, dimX, blocks uint8, kepler bool) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		name := "GTX580"
		if kepler {
			name = "K20m"
		}
		dev, err := LookupDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		// 1–128 threads (1–4 warps) in a bx × by block with bx·by ≥ the
		// thread count drawn and by as small as that allows.
		tpb := int(threads)%(4*WarpSize) + 1
		bx := int(dimX)%tpb + 1
		by := (tpb + bx - 1) / bx
		if bx*by > 4*WarpSize {
			by = 4 * WarpSize / bx
		}
		cfg := LaunchConfig{GridDimX: int(blocks)%3 + 1, GridDimY: 1, BlockDimX: bx, BlockDimY: by, RegsPerThread: 8, SharedMemPerBlock: 64}
		program := statelessProgram(dev, prog, seed)
		load := func(b *Block) {
			bi, _ := b.BlockIdx()
			b.ForEachWarp(func(w *Warp) {
				var addrs [WarpSize]uint64
				for l := range addrs {
					addrs[l] = uint64(4096*bi+512*w.WarpID()) + 4*uint64(l)*(seed%7)
				}
				w.GlobalLoad(w.ValidMask(), &addrs, 4)
			})
		}

		inline, err := NewSimulator(dev).Launch(cfg, func(b *Block) {
			load(b)
			program(b)
		}, LaunchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := Record(dev, cfg, program)
		if err != nil {
			t.Fatal(err)
		}
		recorded, err := NewSimulator(dev).Launch(cfg, func(b *Block) {
			load(b)
			b.Charge(&stream)
		}, LaunchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if recorded.Counters != inline.Counters {
			t.Fatalf("%s block %dx%d, grid %d, program %v:\nrecorded %+v\ninline   %+v",
				dev.Name, bx, by, cfg.GridDimX, prog, recorded.Counters, inline.Counters)
		}
	})
}

func TestRecordRejectsStatefulAccess(t *testing.T) {
	dev := gtx580(t)
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: 2 * WarpSize, BlockDimY: 1, RegsPerThread: 8, SharedMemPerBlock: 64}
	var addrs [WarpSize]uint64
	for l := range addrs {
		addrs[l] = 4 * uint64(l)
	}
	for _, mask := range []Mask{FullMask(), 0} {
		a := NewGlobalAccess(mask, &addrs, 4)
		for _, tc := range []struct {
			op     string
			access func(w *Warp)
		}{
			{"GlobalLoad", func(w *Warp) { w.GlobalLoad(mask, &addrs, 4) }},
			{"GlobalStore", func(w *Warp) { w.GlobalStore(mask, &addrs, 4) }},
			{"GlobalLoadAt", func(w *Warp) { w.GlobalLoadAt(a, 256) }},
			{"GlobalStoreAt", func(w *Warp) { w.GlobalStoreAt(a, 256) }},
			{"AtomicGlobalAdd", func(w *Warp) { w.AtomicGlobalAdd(mask, &addrs) }},
		} {
			c, err := Record(dev, cfg, func(b *Block) {
				b.ForEachWarp(func(w *Warp) { w.IntOps(FullMask(), 1) })
				b.Sync()
				b.ForEachWarp(tc.access)
			})
			if err == nil || !strings.Contains(err.Error(), tc.op+" reads cache state") {
				t.Fatalf("mask %#x: recording %s: err = %v, want a refusal naming it", uint32(mask), tc.op, err)
			}
			if c != (Counters{}) {
				t.Fatalf("mask %#x: refused recording of %s returned counters %+v", uint32(mask), tc.op, c)
			}
		}
	}
	if _, err := Record(dev, cfg, func(*Block) { panic("boom") }); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("a panicking body: err = %v, want it returned", err)
	}
}

// TestRecordAllocatesOnce: recording a body of precomputed accesses costs
// one small allocation, the recording block and its counters; the 8 KB
// bank scratch of the per-call shared forms is not part of it.
func TestRecordAllocatesOnce(t *testing.T) {
	dev := gtx580(t)
	cfg := LaunchConfig{GridDimX: 1, GridDimY: 1, BlockDimX: 16, BlockDimY: 16, RegsPerThread: 8, SharedMemPerBlock: 64}
	var offs [WarpSize]uint32
	for l := range offs {
		offs[l] = uint32(8 * l)
	}
	a := NewSharedAccess(dev, FullMask(), &offs)
	body := func(b *Block) {
		b.ForEachWarp(func(w *Warp) {
			w.SharedLoadAt(a)
			w.IntOps(FullMask(), 3)
		})
		b.Sync()
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Record(dev, cfg, body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Record allocates %v objects, want 1", allocs)
	}
	if size := unsafe.Sizeof(recording{}); size > 2048 {
		t.Fatalf("a recording block is %d bytes, want at most 2 KB", size)
	}
}
