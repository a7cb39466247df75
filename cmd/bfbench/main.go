// bfbench regenerates the paper's tables and figures.
//
// Usage:
//
//	bfbench -exp all                 # every table and figure
//	bfbench -exp fig5 -scale full    # one experiment at paper scale
//	bfbench -exp fig2,fig3,fig4      # the §5 reduction analyses
//	bfbench -exp all -cache-dir .cache -warm
//
// Stdout carries only the text/chart rendering of each table or figure,
// separated by blank lines, so identical flags give byte-identical stdout;
// every diagnostic goes to stderr, ending with one run-cache summary line.
// -csvdir additionally writes the underlying series as CSV files for
// replotting.
//
// All experiments in one invocation share a run cache and a global
// simulation worker pool: a workload run collected by several experiments
// simulates once, and -cache-dir persists profiles across invocations so
// a warm rerun skips simulation entirely. Cached profiles are
// bit-identical to recomputed ones, so every rendering is unchanged.
// -warm reruns the experiments in-process against the warm cache and
// fails unless that output is byte-identical to the cold pass.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"blackforest/internal/buildinfo"
	"blackforest/internal/experiments"
	"blackforest/internal/obs"
	"blackforest/internal/report"
)

// laneExp is the trace lane of experiment spans: profiling worker lanes
// are 0..workers-1, so the experiment lane lives far above them.
const laneExp = 1000

// errUsage marks a command-line error, which exits with status 2.
var errUsage = errors.New("usage")

func main() {
	err := bfbench(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "bfbench: %v\n", err)
		os.Exit(1)
	}
}

// bfbench is the whole command: it parses args, writes the renderings to
// stdout and diagnostics to stderr, and returns the first error. It is the
// only exit point, so deferred profile flushes run on failure too.
func bfbench(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("bfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiments: table1,table2,fig2..fig8, power, ladder, transpose, histogram, optimize, or all")
	scale := fs.String("scale", "full", "experiment scale: quick or full")
	seed := fs.Uint64("seed", 1, "random seed")
	csvdir := fs.String("csvdir", "", "directory for CSV series output (optional)")
	workers := fs.Int("workers", 0, "size of the shared simulation worker pool (0 = all CPUs)")
	cacheDir := fs.String("cache-dir", "", "persist the run cache on disk in this directory (\"\" = in-memory only)")
	cacheMem := fs.Int("cache-mem", 0, "max in-memory cache entries (0 = default)")
	warm := fs.Bool("warm", false, "rerun all experiments against the warm cache and check the output is byte-identical")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	tracePath := fs.String("trace", "", "write the run's span tree as Chrome trace-event JSON to this file (open in Perfetto or chrome://tracing)")
	version := fs.Bool("version", false, "print version and build info, then exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if *version {
		buildinfo.Get("bfbench").Print(stdout)
		return nil
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(nil)
	}

	opts := experiments.Options{Seed: *seed}
	switch *scale {
	case "quick":
		opts.Scale = experiments.Quick
	case "full":
		opts.Scale = experiments.Full
	default:
		fmt.Fprintf(stderr, "bfbench: unknown scale %q (want quick or full)\n", *scale)
		return errUsage
	}
	engine, err := experiments.NewEngine(experiments.EngineConfig{
		CacheDir:      *cacheDir,
		MaxMemEntries: *cacheMem,
		Workers:       *workers,
		Tracer:        tracer,
	})
	if err != nil {
		return fmt.Errorf("opening run cache: %w", err)
	}
	opts.Engine = engine

	var names []string
	if *exp == "all" {
		names = []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "power", "ladder", "transpose", "histogram", "optimize"}
	} else {
		names = strings.Split(*exp, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}

	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return fmt.Errorf("starting CPU profile: %w", perr)
		}
		defer func() {
			// Stopping flushes the profile, so it must precede the Close.
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}

	tracer.SetLaneName(laneExp, "experiments")
	cold, err := runPass(names, opts, *csvdir, stdout, tracer, "cold")
	if err != nil {
		return err
	}
	if *warm {
		warmOut, err := runPass(names, opts, "", io.Discard, tracer, "warm")
		if err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
		for i, out := range warmOut {
			if !bytes.Equal(out, cold[i]) {
				return fmt.Errorf("warm pass of %s rendered different output than cold pass — cache is not bit-identical", names[i])
			}
		}
		fmt.Fprintln(stderr, "[warm pass: output byte-identical to cold pass]")
	}

	if tracer.Enabled() {
		if err := tracer.WriteChromeTraceFile(*tracePath); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stderr, "[trace: %d events written to %s]\n", tracer.Len(), *tracePath)
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			return fmt.Errorf("writing heap profile: %w", err)
		}
	}
	cacheName := engine.CacheDir()
	if cacheName == "" {
		cacheName = "(in-memory)"
	}
	fmt.Fprintf(stderr, "run cache %s: %s\n", cacheName, engine.Stats())
	return nil
}

// runPass runs the experiments in order, each rendering into its own
// buffer, and writes each rendering to w followed by two newlines. It
// returns the renderings, or the first experiment's error.
func runPass(names []string, opts experiments.Options, csvdir string, w io.Writer, tracer *obs.Tracer, pass string) ([][]byte, error) {
	outputs := make([][]byte, len(names))
	for i, name := range names {
		var buf bytes.Buffer
		sp := tracer.Begin(laneExp, "exp "+name).Arg("pass", pass)
		err := run(name, opts, csvdir, &buf)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		outputs[i] = buf.Bytes()
		if _, err := fmt.Fprintf(w, "%s\n\n", outputs[i]); err != nil {
			return nil, err
		}
	}
	return outputs, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return err
	}
	return f.Close()
}

func run(name string, opts experiments.Options, csvdir string, w io.Writer) error {
	switch name {
	case "table1":
		return experiments.RenderTable1(w)
	case "table2":
		return experiments.RenderTable2(w)
	case "fig2", "fig3", "fig4":
		variant := map[string]int{"fig2": 1, "fig3": 2, "fig4": 6}[name]
		res, err := experiments.RunReductionAnalysis(variant, opts)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		if csvdir != "" {
			return writeCSV(csvdir, name+"_partial_dependence.csv", res.PDName, res.PDGrid,
				[]report.Series{{Name: "predicted_time_ms", Y: res.PDResponse}})
		}
		return nil
	case "fig5", "fig6":
		var res *experiments.ProblemScaling
		var err error
		if name == "fig5" {
			res, err = experiments.RunMatMulPrediction(opts)
		} else {
			res, err = experiments.RunNWPrediction(opts)
		}
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		if csvdir != "" {
			sizes := make([]float64, len(res.Eval.Chars))
			for i, c := range res.Eval.Chars {
				sizes[i] = c["size"]
			}
			if err := writeCSV(csvdir, name+"_predictions.csv", "size", sizes, []report.Series{
				{Name: "measured_ms", Y: res.Eval.Actual},
				{Name: "predicted_ms", Y: res.Eval.Predicted},
			}); err != nil {
				return err
			}
			for _, cs := range res.CounterSeries {
				if err := writeCSV(csvdir, fmt.Sprintf("%s_counter_%s.csv", name, cs.Counter),
					"size", cs.Sizes, []report.Series{
						{Name: "measured", Y: cs.Measured},
						{Name: "modeled", Y: cs.Modeled},
					}); err != nil {
					return err
				}
			}
		}
		return nil
	case "fig7", "fig8":
		var res *experiments.HWScaling
		var err error
		if name == "fig7" {
			res, err = experiments.RunHWScalingMM(opts)
		} else {
			res, err = experiments.RunHWScalingNW(opts)
		}
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		if csvdir != "" {
			sizes := make([]float64, len(res.Result.Mixed.Chars))
			for i, c := range res.Result.Mixed.Chars {
				sizes[i] = c["size"]
			}
			return writeCSV(csvdir, name+"_predictions.csv", "size", sizes, []report.Series{
				{Name: "measured_ms", Y: res.Result.Mixed.Actual},
				{Name: "straightforward_ms", Y: res.Result.Straightforward.Predicted},
				{Name: "mixed_ms", Y: res.Result.Mixed.Predicted},
			})
		}
		return nil
	case "power":
		res, err := experiments.RunPowerPrediction(opts)
		if err != nil {
			return err
		}
		return res.Render(w)
	case "ladder":
		res, err := experiments.RunReductionLadder(opts)
		if err != nil {
			return err
		}
		return res.Render(w)
	case "optimize":
		res, err := experiments.RunOptimizer(opts)
		if err != nil {
			return err
		}
		return res.Render(w)
	case "transpose":
		for v := 0; v <= 2; v++ {
			res, err := experiments.RunTransposeAnalysis(v, opts)
			if err != nil {
				return err
			}
			if err := res.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	case "histogram":
		for v := 0; v <= 1; v++ {
			res, err := experiments.RunHistogramAnalysis(v, opts)
			if err != nil {
				return err
			}
			if err := res.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func writeCSV(dir, file, xName string, xs []float64, series []report.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteSeriesCSV(f, xName, xs, series); err != nil {
		return err
	}
	return f.Close()
}
