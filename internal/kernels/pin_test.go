package kernels

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"blackforest/internal/gpusim"
	"blackforest/internal/profiler"
)

// pinnedCountersFile holds one digest per (case, device): the bits of
// every derived metric, the modeled cycles, time, energy and power, the
// bottleneck breakdown and tally, and the kernel's functional output.
// It was generated before the simulator's hot paths were optimized and
// must never be regenerated to make a performance change pass: any
// drift means the change altered what the simulator computes.
const pinnedCountersFile = "testdata/counters_pinned.txt"

type pinCase struct {
	name     string
	maxSim   int // profiler.Options.MaxSimBlocks; 0 simulates every block
	workload func() profiler.Workload
	output   func(profiler.Workload) []uint64
}

func f32Bits(v []float32) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = uint64(math.Float32bits(x))
	}
	return out
}

func i32Bits(v []int32) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = uint64(uint32(x))
	}
	return out
}

func pinCases() []pinCase {
	var cases []pinCase
	for v := 0; v <= 6; v++ {
		v := v
		cases = append(cases, pinCase{
			name:     fmt.Sprintf("reduce%d", v),
			workload: func() profiler.Workload { return &Reduction{Variant: v, N: 10000, BlockSize: 256, Seed: 11} },
			output: func(w profiler.Workload) []uint64 {
				return []uint64{uint64(math.Float32bits(w.(*Reduction).Result))}
			},
		})
	}
	matmulOut := func(w profiler.Workload) []uint64 { return f32Bits(w.(*MatMul).C()) }
	needleOut := func(w profiler.Workload) []uint64 { return i32Bits(w.(*NeedlemanWunsch).Score()) }
	cases = append(cases,
		pinCase{name: "matmul-tile16", output: matmulOut,
			workload: func() profiler.Workload { return &MatMul{N: 64, Tile: 16, Seed: 12} }},
		pinCase{name: "matmul-tile32", output: matmulOut,
			workload: func() profiler.Workload { return &MatMul{N: 64, Tile: 32, Seed: 12} }},
		pinCase{name: "matmul-tile16-unroll4", output: matmulOut,
			workload: func() profiler.Workload { return &MatMul{N: 64, Tile: 16, Unroll: 4, Seed: 12} }},
		pinCase{name: "matmul-tile16-sampled8", maxSim: 8, output: matmulOut,
			workload: func() profiler.Workload { return &MatMul{N: 128, Tile: 16, Seed: 12} }},
		pinCase{name: "needle", output: needleOut,
			workload: func() profiler.Workload { return &NeedlemanWunsch{SeqLen: 64, Seed: 13} }},
		pinCase{name: "needle-sampled8", maxSim: 8, output: needleOut,
			workload: func() profiler.Workload { return &NeedlemanWunsch{SeqLen: 256, Seed: 13} }},
	)
	for v := 0; v <= 2; v++ {
		v := v
		cases = append(cases, pinCase{
			name:     fmt.Sprintf("transpose%d", v),
			workload: func() profiler.Workload { return &Transpose{Variant: v, N: 64, Seed: 14} },
			output:   func(w profiler.Workload) []uint64 { return f32Bits(w.(*Transpose).Out()) },
		})
	}
	for v := 0; v <= 1; v++ {
		v := v
		cases = append(cases, pinCase{
			name:     fmt.Sprintf("histogram%d", v),
			workload: func() profiler.Workload { return &Histogram{Variant: v, N: 10000, Skew: 0.3, Seed: 15} },
			output: func(w profiler.Workload) []uint64 {
				bins := w.(*Histogram).Bins()
				out := make([]uint64, len(bins))
				for i, b := range bins {
					out[i] = uint64(b)
				}
				return out
			},
		})
	}
	return cases
}

// profileDigest hashes everything a profile and its functional output
// carry, in a fixed order.
func profileDigest(pr *profiler.Profile, output []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	putF := func(x float64) { put(math.Float64bits(x)) }
	for _, name := range pr.MetricNames() {
		h.Write([]byte(name))
		putF(pr.Metrics[name])
	}
	putF(pr.Cycles)
	putF(pr.ModelTimeMS)
	putF(pr.EnergyMJ)
	putF(pr.PowerW)
	b := pr.Breakdown
	for _, x := range []float64{b.IssueCycles, b.MemLatencyCycles, b.BarrierCycles,
		b.SharedReplayCycles, b.UncoalescedCycles, b.AtomicCycles} {
		putF(x)
	}
	names := make([]string, 0, len(pr.Bottlenecks))
	for k := range pr.Bottlenecks {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h.Write([]byte(k))
		put(uint64(pr.Bottlenecks[k]))
	}
	put(uint64(len(output)))
	for _, x := range output {
		put(x)
	}
	return h.Sum64()
}

func readPinned(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(pinnedCountersFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", pinnedCountersFile, line)
		}
		want[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSimulatorCountersPinned pins every kernel family's simulated
// counters, timing, energy, breakdown and functional output on both
// device generations, at full and sampled simulation. On a mismatch it
// logs the complete table it computed, for diagnosis only.
func TestSimulatorCountersPinned(t *testing.T) {
	want := readPinned(t)
	var got []string
	for _, devName := range []string{"GTX580", "K20m"} {
		dev, err := gpusim.LookupDevice(devName)
		if err != nil {
			t.Fatal(err)
		}
		p := profiler.New(dev, profiler.Options{MaxSimBlocks: 0, NoiseSigma: -1})
		sampled := profiler.New(dev, profiler.Options{MaxSimBlocks: 8, NoiseSigma: -1})
		for _, c := range pinCases() {
			prof := p
			if c.maxSim != 0 {
				prof = sampled
			}
			w := c.workload()
			pr, err := prof.Run(w)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, devName, err)
			}
			key := c.name + " " + devName
			d := fmt.Sprintf("%016x", profileDigest(pr, c.output(w)))
			got = append(got, key+" "+d)
			if want[key] != d {
				t.Errorf("%s: digest %s, pinned %q", key, d, want[key])
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, the test computes %d", pinnedCountersFile, len(want), len(got))
	}
	if t.Failed() {
		t.Logf("computed table:\n%s", strings.Join(got, "\n"))
	}
}
