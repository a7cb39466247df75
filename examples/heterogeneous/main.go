// Heterogeneous workload partitioning — the paper's closing §7 claim:
// "we believe our approach is very useful in the context of emerging
// CPU+GPUs heterogeneous systems, where performance modeling is key to
// determine workload partitioning … As BF is equally applicable for all
// processing units in the platform, we can provide a unified modeling
// approach for heterogeneous platforms."
//
// This example trains one BlackForest time model per processing unit —
// the simulated GTX580 running the SDK reduction, and a Xeon-class CPU
// model running the multicore SIMD reduction — then sweeps the split
// fraction β of a large array and picks the β minimizing the makespan
// max(T_cpu(β·N), T_gpu((1−β)·N)), Glinda-style.
//
// Run with: go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	"blackforest"
)

func main() {
	// --- GPU time model ---
	gpu, err := blackforest.LookupDevice("GTX580")
	if err != nil {
		log.Fatal(err)
	}
	var gpuRuns []blackforest.Workload
	seed := uint64(1)
	for n := 1 << 16; n <= 1<<24; n = n * 3 / 2 {
		for r := 0; r < 2; r++ {
			seed++
			gpuRuns = append(gpuRuns, &blackforest.Reduction{Variant: 6, N: n, BlockSize: 256, Seed: seed})
		}
	}
	gpuFrame, err := blackforest.Collect(gpu, gpuRuns, blackforest.CollectOptions{MaxSimBlocks: 16})
	if err != nil {
		log.Fatal(err)
	}
	cfg := blackforest.DefaultConfig()
	cfg.Forest.NTrees = 200
	gpuAnalysis, err := blackforest.Analyze(gpuFrame, cfg)
	if err != nil {
		log.Fatal(err)
	}
	gpuScaler, err := blackforest.NewProblemScaler(gpuAnalysis, 6, blackforest.AutoModel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GPU (%s) reduce6 model: %%var explained %.1f%%\n", gpu.Name, 100*gpuAnalysis.VarExplained)

	// --- CPU time model (same pipeline, CPU counters) ---
	cpu, err := blackforest.LookupCPU("XeonE5")
	if err != nil {
		log.Fatal(err)
	}
	cp := blackforest.NewCPUProfiler(cpu, 0, 7)
	var cpuProfiles []*blackforest.Profile
	for n := 1 << 14; n <= 1<<24; n = n * 3 / 2 {
		prof, err := cp.Run(&blackforest.CPUReduction{N: n})
		if err != nil {
			log.Fatal(err)
		}
		cpuProfiles = append(cpuProfiles, prof)
	}
	cpuFrame, err := blackforest.FrameFromProfiles(cpuProfiles)
	if err != nil {
		log.Fatal(err)
	}
	cpuAnalysis, err := blackforest.Analyze(cpuFrame, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cpuScaler, err := blackforest.NewProblemScaler(cpuAnalysis, 6, blackforest.AutoModel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CPU (%s) reduce model:  %%var explained %.1f%%\n\n", cpu.Name, 100*cpuAnalysis.VarExplained)

	// --- Partitioning: split N elements, run both units concurrently ---
	const totalN = 10_000_000 // unseen by either model, inside both ranges
	predict := func(scaler *blackforest.ProblemScaler, n float64, gpuSide bool) float64 {
		chars := map[string]float64{"size": n}
		if gpuSide {
			chars["block_size"] = 256
		}
		t, err := scaler.PredictTime(chars)
		if err != nil {
			log.Fatal(err)
		}
		return t
	}

	fmt.Printf("partitioning a %d-element reduction:\n", totalN)
	fmt.Println("  β(CPU)  T_cpu(ms)  T_gpu(ms)  makespan(ms)")
	bestBeta, bestMakespan := 0.0, predict(gpuScaler, totalN, true)
	for beta := 0.0; beta <= 0.5001; beta += 0.05 {
		cpuN := beta * totalN
		gpuN := (1 - beta) * totalN
		tc := 0.0
		if cpuN >= 1 {
			tc = predict(cpuScaler, cpuN, false)
		}
		tg := predict(gpuScaler, gpuN, true)
		makespan := tc
		if tg > makespan {
			makespan = tg
		}
		fmt.Printf("  %5.2f   %8.4f   %8.4f   %8.4f\n", beta, tc, tg, makespan)
		if makespan < bestMakespan {
			bestBeta, bestMakespan = beta, makespan
		}
	}
	gpuOnly := predict(gpuScaler, totalN, true)
	fmt.Printf("\noptimal split: %.0f%% CPU / %.0f%% GPU — makespan %.4f ms (GPU-only: %.4f ms)\n",
		100*bestBeta, 100*(1-bestBeta), bestMakespan, gpuOnly)
}
