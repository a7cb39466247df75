// bfprof is the nvprof-style profiling front end: it runs one of the
// bundled kernels on a simulated device and prints the counter values, in
// either nvprof-like CSV or the pipeline's frame CSV (with -sweep).
//
// Usage:
//
//	bfprof -kernel reduce2 -device GTX580 -size 1048576
//	bfprof -kernel matmul -device K20m -size 512
//	bfprof -kernel needle -sweep 64:1024:64 > needle.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"blackforest/internal/core"
	"blackforest/internal/gpusim"
	"blackforest/internal/kernels"
	"blackforest/internal/profiler"
)

func main() {
	kernel := flag.String("kernel", "reduce2", "kernel: reduce0..reduce6, transpose0..transpose2, histogram0..histogram1, matmul, needle")
	device := flag.String("device", "GTX580", "device: "+strings.Join(gpusim.DeviceNames(), ", "))
	size := flag.Int("size", 1<<20, "problem size (array length, matrix dim, or sequence length)")
	blockSize := flag.Int("block", 256, "threads per block (reduction kernels)")
	sweep := flag.String("sweep", "", "profile a size sweep lo:hi:step and emit a frame CSV")
	maxBlocks := flag.Int("simblocks", 24, "max thread blocks simulated in detail per launch (0 = all)")
	seed := flag.Uint64("seed", 1, "input-data seed")
	workers := flag.Int("workers", 0, "concurrent profiling runs with -sweep (0 = all CPUs)")
	flag.Parse()

	dev, err := gpusim.LookupDevice(*device)
	if err != nil {
		fatal(err)
	}
	p := profiler.New(dev, profiler.Options{MaxSimBlocks: *maxBlocks, Seed: *seed, Gate: profiler.NewGate(*workers)})

	if *sweep != "" {
		lo, hi, step, err := parseSweep(*sweep)
		if err != nil {
			fatal(err)
		}
		var runs []profiler.Workload
		for n := lo; n <= hi; n += step {
			w, err := makeWorkload(*kernel, n, *blockSize, *seed+uint64(n))
			if err != nil {
				fatal(err)
			}
			runs = append(runs, w)
		}
		profiles, err := p.RunAll(runs)
		if err != nil {
			fatal(err)
		}
		frame, deg, err := core.Tabulate(profiles, 0)
		if err != nil {
			fatal(err)
		}
		if deg != nil {
			fatal(fmt.Errorf("%s", deg))
		}
		if err := frame.WriteCSV(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	w, err := makeWorkload(*kernel, *size, *blockSize, *seed)
	if err != nil {
		fatal(err)
	}
	prof, err := p.Run(w)
	if err != nil {
		fatal(err)
	}
	if err := prof.WriteNvprofCSV(os.Stdout); err != nil {
		fatal(err)
	}
}

func makeWorkload(kernel string, size, blockSize int, seed uint64) (profiler.Workload, error) {
	switch {
	case strings.HasPrefix(kernel, "transpose"):
		v, err := strconv.Atoi(strings.TrimPrefix(kernel, "transpose"))
		if err != nil {
			return nil, fmt.Errorf("bad transpose kernel %q", kernel)
		}
		return &kernels.Transpose{Variant: v, N: size, Seed: seed}, nil
	case strings.HasPrefix(kernel, "histogram"):
		v, err := strconv.Atoi(strings.TrimPrefix(kernel, "histogram"))
		if err != nil {
			return nil, fmt.Errorf("bad histogram kernel %q", kernel)
		}
		return &kernels.Histogram{Variant: v, N: size, BlockSize: blockSize, Seed: seed}, nil
	case strings.HasPrefix(kernel, "reduce"):
		v, err := strconv.Atoi(strings.TrimPrefix(kernel, "reduce"))
		if err != nil {
			return nil, fmt.Errorf("bad reduction kernel %q", kernel)
		}
		return &kernels.Reduction{Variant: v, N: size, BlockSize: blockSize, Seed: seed}, nil
	case kernel == "matmul":
		return &kernels.MatMul{N: size, Seed: seed}, nil
	case kernel == "needle":
		return &kernels.NeedlemanWunsch{SeqLen: size, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}
}

func parseSweep(s string) (lo, hi, step int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("sweep %q must be lo:hi:step", s)
	}
	vals := make([]int, 3)
	for i, p := range parts {
		vals[i], err = strconv.Atoi(p)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("sweep %q: %w", s, err)
		}
	}
	if vals[2] <= 0 || vals[0] > vals[1] {
		return 0, 0, 0, fmt.Errorf("sweep %q: need lo <= hi and step > 0", s)
	}
	return vals[0], vals[1], vals[2], nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfprof:", err)
	os.Exit(1)
}
