// bfperf is BlackForest's benchmark. It times the paper's analysis
// pipeline against a cold and a warm run cache, and a live bfserve under
// unique and hot predict traffic, checks every output, and prints one JSON
// result line:
//
//	bash bfperf/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 a
// separate traced run reports the per-layer metrics and writes a Chrome
// trace under .bench_build/. BENCHMARK.json at the repository root lists
// the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"blackforest/internal/buildinfo"
)

// setupReps is how many times a run sets up its workload; setup_s is the
// median.
const setupReps = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	slots    int    // simulation slots, threads and client connections: nproc
	work     string // scratch directory inside the checkout
	out      string // where the Chrome trace goes
}

// report is what a workload measured.
type report struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]metric
	notes             []string
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts failed operations, keeping the first error for the log.
func (r *report) fail(n int, err error) {
	r.failed += n
	if n > 0 && r.firstErr == nil {
		r.firstErr = err
	}
}

var workloads = map[string]func(config) (*report, error){
	"analyze-cold": func(c config) (*report, error) { return runAnalyze(c, false) },
	"analyze-warm": func(c config) (*report, error) { return runAnalyze(c, true) },
	"serve-unique": func(c config) (*report, error) { return runServe(c, false) },
	"serve-hot":    func(c config) (*report, error) { return runServe(c, true) },
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bfperf:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "analyze-cold, analyze-warm, serve-unique or serve-hot")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return fmt.Errorf("bad arguments")
	}
	out, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(mkdir(out), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	c := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, slots: runtime.NumCPU(), work: work, out: out,
	}
	fmt.Printf("bfperf %s seed=%d seconds=%d trace=%d\n", c.workload, c.seed, *seconds, *trace)
	fmt.Println(provenance(c))

	rep, err := fn(c)
	if err != nil {
		return err
	}
	if !c.trace {
		rep.set("max_rss_mb", maxRSSMB(), "MB")
	}
	if rep.attempted < 1 {
		return errors.New("no operation attempted")
	}
	if rep.firstErr != nil {
		fmt.Fprintln(os.Stderr, "bfperf: first failure:", rep.firstErr)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted)\n",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	line, err := json.Marshal(result{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports any failure
	return dir
}

// provenance names the hardware, toolchain and build a result came from.
func provenance(c config) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	bi := buildinfo.Get("bfperf")
	return fmt.Sprintf("provenance: cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s seed=%d",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), bi.GoVersion, bi.ShortRevision(), c.seed)
}

// timer measures elapsed wall time.
type timer struct{ t0 time.Time }

func startTimer() timer { return timer{time.Now()} }

func (t timer) seconds() float64 { return time.Since(t.t0).Seconds() }

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB is the process's peak resident memory so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocMB is the process's cumulative heap allocation so far.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
