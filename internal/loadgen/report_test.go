package loadgen

import (
	"bytes"
	"math"
	"testing"
)

// TestPctEdgeCases pins the latency percentiles on the degenerate inputs
// a short or failed run produces: no samples, one sample, identical
// samples.
func TestPctEdgeCases(t *testing.T) {
	if got := latencyOf(nil); got != (Latency{}) {
		t.Errorf("latencyOf(nil) = %+v, want zero", got)
	}
	for _, tc := range []struct {
		ms   []float64
		want float64
	}{
		{[]float64{7.5}, 7.5},
		{[]float64{3, 3, 3, 3, 3}, 3},
	} {
		want := Latency{Mean: tc.want, P50: tc.want, P90: tc.want, P99: tc.want, Max: tc.want}
		if got := latencyOf(tc.ms); got != want {
			t.Errorf("latencyOf(%v) = %+v, want %+v", tc.ms, got, want)
		}
	}
}

// TestPctNearestRank checks the percentiles against hand-computed ranks:
// on n samples, quantile q sits at position q*(n-1) of the sorted
// samples, interpolating between the two neighbouring order statistics.
func TestPctNearestRank(t *testing.T) {
	ms := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	got := latencyOf(ms)
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"mean", got.Mean, 5.5},
		{"p50", got.P50, 5.5},  // position 4.5
		{"p90", got.P90, 9.1},  // position 8.1
		{"p99", got.P99, 9.91}, // position 8.91
		{"max", got.Max, 10},
	} {
		if math.Abs(tc.got-tc.want) > 1e-12 {
			t.Errorf("latencyOf(1..10).%s = %g, want %g", tc.name, tc.got, tc.want)
		}
	}
}

// TestReportGoldenJSON pins the report's exact JSON rendering — field
// names, order, indentation — so downstream consumers (CI dashboards,
// jq pipelines in the README) never break on a silent schema change.
func TestReportGoldenJSON(t *testing.T) {
	rep := &Report{
		URL:         "http://localhost:8391/v1/predict",
		Model:       "matmul",
		Requests:    100,
		Errors:      2,
		StatusCount: map[string]int{"200": 98, "503": 2},
		Concurrency: 8,
		QPS:         500,
		Seed:        1,
		DurationMS:  250.5,
		Throughput:  391.2,
		LatencyMS: Latency{
			Mean: 1.25,
			P50:  1,
			P90:  2.5,
			P99:  6.125,
			Max:  9.75,
		},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "url": "http://localhost:8391/v1/predict",
  "model": "matmul",
  "requests": 100,
  "errors": 2,
  "status_counts": {
    "200": 98,
    "503": 2
  },
  "concurrency": 8,
  "target_qps": 500,
  "seed": 1,
  "duration_ms": 250.5,
  "throughput_rps": 391.2,
  "latency_ms": {
    "mean": 1.25,
    "p50": 1,
    "p90": 2.5,
    "p99": 6.125,
    "max": 9.75
  }
}
`
	if buf.String() != golden {
		t.Errorf("report JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), golden)
	}
}
