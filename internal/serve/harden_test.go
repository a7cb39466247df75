package serve

// Serving-path hardening tests: panics answered as 500s (the server
// survives), the one predict path over mixed cached/uncached batches, and
// delivered-only prediction metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blackforest/internal/core"
)

// scrapeMetrics fetches /metrics as text.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestPanicOnSingleRequestAnswers500: a panic inside the prediction path of
// a single-vector request must surface as a JSON 500 through the recover
// middleware (http.TimeoutHandler re-raises the inner goroutine's panic in
// the outer frame), count in bfserve_panics_total, and leave the server
// fully functional.
func TestPanicOnSingleRequestAnswers500(t *testing.T) {
	ps := testScaler(t, 3)
	var calls atomic.Int64
	s, hs := newTestServer(t, ps, Config{})
	s.testHookPredict = func() {
		if calls.Add(1) == 1 {
			panic("deliberately broken predictor")
		}
	}

	resp, raw := postPredict(t, hs.URL, `{"chars":{"size":320}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, raw)
	}
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("500 body is not a JSON error: %s", raw)
	}
	if !strings.Contains(e.Error, "deliberately broken predictor") {
		t.Fatalf("500 body does not name the panic: %s", raw)
	}

	// The server must still answer; the hook no longer panics.
	resp2, raw2 := postPredict(t, hs.URL, `{"chars":{"size":320}}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: status %d: %s", resp2.StatusCode, raw2)
	}
	text := scrapeMetrics(t, hs.URL)
	if !strings.Contains(text, "bfserve_panics_total 1") {
		t.Fatalf("metrics missing bfserve_panics_total 1:\n%s", text)
	}
}

// TestPanicInBatchWorkerAnswers500: a panic while computing a batch's rows
// must be converted to an error that handlePredict maps to 500, and the
// process must survive.
func TestPanicInBatchWorkerAnswers500(t *testing.T) {
	ps := testScaler(t, 3)
	var calls atomic.Int64
	s, hs := newTestServer(t, ps, Config{})
	s.testHookPredict = func() {
		if calls.Add(1) == 1 {
			panic("worker boom")
		}
	}

	resp, raw := postPredict(t, hs.URL,
		`{"batch":[{"size":64},{"size":128},{"size":256},{"size":512}]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, raw)
	}
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "prediction panicked") {
		t.Fatalf("500 body does not report the worker panic: %s", raw)
	}

	resp2, raw2 := postPredict(t, hs.URL, `{"batch":[{"size":64},{"size":128}]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the worker panic: status %d: %s", resp2.StatusCode, raw2)
	}
	text := scrapeMetrics(t, hs.URL)
	if !strings.Contains(text, "bfserve_panics_total 1") {
		t.Fatalf("metrics missing bfserve_panics_total 1:\n%s", text)
	}
}

// TestMetricsCountOnlyDeliveredPredictions: a batch abandoned on context
// expiry returns nothing to the client, so none of its rows may count in
// bfserve_predictions_total (or the cache hit/miss counters).
func TestMetricsCountOnlyDeliveredPredictions(t *testing.T) {
	ps := testScaler(t, 3)
	release := make(chan struct{})
	var once sync.Once
	s, hs := newTestServer(t, ps, Config{RequestTimeout: 100 * time.Millisecond})
	s.testHookPredict = func() {
		once.Do(func() { <-release })
	}

	resp, raw := postPredict(t, hs.URL, `{"batch":[{"size":64},{"size":128},{"size":256}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (timeout): %s", resp.StatusCode, raw)
	}
	close(release)
	// Let the abandoned handler goroutine finish unwinding before scraping.
	time.Sleep(100 * time.Millisecond)

	text := scrapeMetrics(t, hs.URL)
	for _, want := range []string{
		`bfserve_predictions_total{model="default"} 0`,
		"bfserve_cache_hits_total 0",
		"bfserve_cache_misses_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q after an undelivered batch:\n%s", want, text)
		}
	}

	// A delivered request counts normally.
	resp2, raw2 := postPredict(t, hs.URL, `{"chars":{"size":64}}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, raw2)
	}
	if text := scrapeMetrics(t, hs.URL); !strings.Contains(text, `bfserve_predictions_total{model="default"} 1`) {
		t.Fatalf("delivered prediction not counted:\n%s", text)
	}
}

// TestBatchMixedCachedUncachedDuplicate: one batch holding cached rows,
// uncached rows and an uncached row twice — spanning more than one compute
// block — must answer every row in order, bit-identical to a per-row
// PredictDetail, computing only the misses. Both copies of the duplicated
// row miss: rows are looked up before any of them is computed.
func TestBatchMixedCachedUncachedDuplicate(t *testing.T) {
	ps := testScaler(t, 3)
	var computed atomic.Int64
	s, hs := newTestServer(t, ps, Config{CacheSize: 256})
	s.testHookPredict = func() { computed.Add(1) }

	cached := []float64{128, 640, 1536}
	for _, size := range cached {
		if resp, raw := postPredict(t, hs.URL, fmt.Sprintf(`{"chars":{"size":%g}}`, size)); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up status %d: %s", resp.StatusCode, raw)
		}
	}
	hits0, misses0, computed0 := s.cacheHits.Value(), s.cacheMisses.Value(), computed.Load()

	var sizes []float64
	for i := 0; i < predictBlockRows+6; i++ {
		sizes = append(sizes, float64(1000+i))
	}
	sizes = append(sizes, 1000) // the duplicated uncached row
	sizes = append(sizes[:5], append(cached, sizes[5:]...)...)
	batch := make([]string, len(sizes))
	for i, size := range sizes {
		batch[i] = fmt.Sprintf(`{"size":%g}`, size)
	}
	resp, raw := postPredict(t, hs.URL, `{"batch":[`+strings.Join(batch, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var pr PredictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != len(sizes) {
		t.Fatalf("%d predictions for %d rows", len(pr.Predictions), len(sizes))
	}
	for i, size := range sizes {
		tm, counters, err := ps.PredictDetail(map[string]float64{"size": size})
		if err != nil {
			t.Fatal(err)
		}
		got := pr.Predictions[i]
		if math.Float64bits(got.TimeMS) != math.Float64bits(tm) {
			t.Fatalf("row %d (size %g): time_ms %v, want %v", i, size, got.TimeMS, tm)
		}
		if len(got.Counters) != len(counters) {
			t.Fatalf("row %d: %d counters, want %d", i, len(got.Counters), len(counters))
		}
		for name, v := range counters {
			if math.Float64bits(got.Counters[name]) != math.Float64bits(v) {
				t.Fatalf("row %d: counter %s = %v, want %v", i, name, got.Counters[name], v)
			}
		}
	}

	wantHits, wantMisses := int64(len(cached)), int64(len(sizes)-len(cached))
	if d := s.cacheHits.Value() - hits0; d != wantHits {
		t.Errorf("cache hits grew by %d, want %d", d, wantHits)
	}
	if d := s.cacheMisses.Value() - misses0; d != wantMisses {
		t.Errorf("cache misses grew by %d, want %d", d, wantMisses)
	}
	if d := computed.Load() - computed0; d != wantMisses {
		t.Errorf("computed %d rows, want %d (one per miss)", d, wantMisses)
	}
}

// TestModelEndpointReportsEngine: /v1/model (and every predict answer) names
// the inference engine — "flat" for a fitted model, "flat(<enc>)" for one
// loaded from a saved bundle.
func TestModelEndpointReportsEngine(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{})
	var rep ModelReport
	resp, err := http.Get(hs.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model.Engine != "flat" {
		t.Fatalf("fitted model engine = %q, want flat", rep.Model.Engine)
	}

	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadProblemScaler(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, qhs := newTestServer(t, loaded, Config{})
	resp, err = http.Get(qhs.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rep.Model.Engine, "flat(") {
		t.Fatalf("loaded model engine = %q, want flat(<enc>)", rep.Model.Engine)
	}
	pr, raw := postPredict(t, qhs.URL, `{"chars":{"size":512}}`)
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("loaded model predict status %d: %s", pr.StatusCode, raw)
	}
	var predResp PredictResponse
	if err := json.Unmarshal(raw, &predResp); err != nil {
		t.Fatal(err)
	}
	if predResp.Model.Engine != rep.Model.Engine {
		t.Fatalf("predict engine %q != model engine %q", predResp.Model.Engine, rep.Model.Engine)
	}
}
