package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runBench drives the command in-process and returns its stdout and stderr.
func runBench(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := bfbench(args, &out, &errOut); err != nil {
		t.Fatalf("bfbench %v: %v\nstderr:\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

var cacheLine = regexp.MustCompile(`run cache .*: (\d+) hits, (\d+) misses \(\d+% hit rate\), (\d+) writes\n$`)

// cacheStats parses the run-cache summary line that ends stderr.
func cacheStats(t *testing.T, stderr string) (hits, misses, writes int) {
	t.Helper()
	m := cacheLine.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no run-cache summary at the end of stderr:\n%s", stderr)
	}
	n := func(s string) int {
		v, _ := strconv.Atoi(s)
		return v
	}
	return n(m[1]), n(m[2]), n(m[3])
}

func TestWarmRerunIsByteIdenticalAndFullyCached(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig2", "-scale", "quick", "-cache-dir", dir}
	coldOut, coldErr := runBench(t, args...)
	warmOut, warmErr := runBench(t, args...)
	if coldOut != warmOut {
		t.Fatalf("warm stdout differs from cold stdout:\n--- cold\n%s\n--- warm\n%s", coldOut, warmOut)
	}
	if coldOut == "" {
		t.Fatal("fig2 rendered nothing")
	}
	_, _, coldWrites := cacheStats(t, coldErr)
	warmHits, warmMisses, _ := cacheStats(t, warmErr)
	if coldWrites == 0 {
		t.Fatalf("cold run wrote no cache entries:\n%s", coldErr)
	}
	if warmMisses != 0 || warmHits != coldWrites {
		t.Fatalf("warm run: %d hits, %d misses; want %d hits (the cold writes), 0 misses", warmHits, warmMisses, coldWrites)
	}
}

func TestWarmPassChecksByteIdentity(t *testing.T) {
	_, stderr := runBench(t, "-exp", "table1,fig2", "-scale", "quick", "-warm")
	if !strings.Contains(stderr, "output byte-identical to cold pass") {
		t.Fatalf("no warm-pass note on stderr:\n%s", stderr)
	}
}

func TestTraceLeavesStdoutUnchanged(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	plain, _ := runBench(t, "-exp", "fig2", "-scale", "quick")
	traced, stderr := runBench(t, "-exp", "fig2", "-scale", "quick", "-trace", trace)
	if traced != plain {
		t.Fatalf("traced stdout differs from untraced stdout:\n--- plain\n%s\n--- traced\n%s", plain, traced)
	}
	if !strings.Contains(stderr, "[trace: ") {
		t.Fatalf("no trace note on stderr:\n%s", stderr)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}
}

func TestCPUProfileIsFlushed(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.out")
	runBench(t, "-exp", "table1", "-scale", "quick", "-cpuprofile", prof)
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("CPU profile is not gzip-framed (%d bytes)", len(b))
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var out, errOut bytes.Buffer
	err := bfbench([]string{"-exp", "predict", "-scale", "quick"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "predict"`) {
		t.Fatalf("-exp predict: got error %v, want unknown experiment", err)
	}
}
