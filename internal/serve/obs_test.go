package serve

// Observability contract tests: the /metrics scrape is well-formed
// Prometheus text exposition end to end (every sample belongs to a family
// whose # HELP/# TYPE preceded it, histograms are complete), and enabling
// access logging, request IDs, stage histograms, and an extra registry
// never changes a response body byte.

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"blackforest/internal/obs"
	"blackforest/internal/runcache"
)

// parseScrape walks one exposition scrape line by line and fails the test
// on any structural violation: samples before their family header, a family
// declared twice, unparsable values, or histogram families missing their
// +Inf bucket, _sum, or _count.
func parseScrape(t *testing.T, text string) (families map[string]string, samples map[string]float64) {
	t.Helper()
	families = map[string]string{} // name → type
	samples = map[string]float64{} // full series text (name+labels) → value
	helped := map[string]bool{}
	histSuffix := map[string]map[string]bool{} // histogram family → suffixes seen
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			helped[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := parts[0], parts[1]
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: family %q declared twice", ln+1, name)
			}
			if !helped[name] {
				t.Fatalf("line %d: family %q has TYPE but no preceding HELP", ln+1, name)
			}
			families[name] = typ
			if typ == "histogram" {
				histSuffix[name] = map[string]bool{}
			}
		case line == "" || strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment/blank: %q", ln+1, line)
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: no value: %q", ln+1, line)
			}
			series, val := line[:sp], line[sp+1:]
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
			}
			name := series
			if b := strings.IndexByte(series, '{'); b >= 0 {
				name = series[:b]
			}
			fam := name
			suffix := ""
			if _, ok := families[fam]; !ok {
				for _, sfx := range []string{"_bucket", "_sum", "_count"} {
					if strings.HasSuffix(name, sfx) {
						if _, ok := families[strings.TrimSuffix(name, sfx)]; ok {
							fam, suffix = strings.TrimSuffix(name, sfx), sfx
							break
						}
					}
				}
			}
			typ, ok := families[fam]
			if !ok {
				t.Fatalf("line %d: sample %q precedes its # TYPE header", ln+1, series)
			}
			if suffix != "" && typ != "histogram" && typ != "summary" {
				t.Fatalf("line %d: %s sample %q uses suffix %q", ln+1, typ, series, suffix)
			}
			if typ == "histogram" {
				if suffix == "" {
					t.Fatalf("line %d: histogram family %q has bare sample %q", ln+1, fam, series)
				}
				histSuffix[fam][suffix] = true
				if suffix == "_bucket" && strings.Contains(series, `le="+Inf"`) {
					histSuffix[fam]["+Inf"] = true
				}
			}
			f, _ := strconv.ParseFloat(val, 64)
			samples[series] = f
		}
	}
	for fam, seen := range histSuffix {
		for _, want := range []string{"_bucket", "_sum", "_count", "+Inf"} {
			if !seen[want] {
				t.Errorf("histogram %q is missing %s lines", fam, want)
			}
		}
	}
	return families, samples
}

// TestMetricsFullScrapeWellFormed parses the entire /metrics output — the
// serve counters, the build-info gauge, the stage histograms, and an extra
// registry carrying run-cache counters — with the strict parser above.
func TestMetricsFullScrapeWellFormed(t *testing.T) {
	extra := obs.NewRegistry()
	runcache.RegisterMetrics(extra, "bfserve_runcache", func() runcache.Stats {
		return runcache.Stats{MemHits: 7, Misses: 2}
	})
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{Extra: extra})

	// Touch a couple of routes so real series exist next to the zero ones.
	postPredict(t, hs.URL, `{"chars":{"size":256}}`)
	postPredict(t, hs.URL, `{"batch":[{"size":64},{"size":128}]}`)
	postPredict(t, hs.URL, `not json`)
	text := scrapeMetrics(t, hs.URL)

	families, samples := parseScrape(t, text)

	for fam, typ := range map[string]string{
		"bfserve_requests_total":           "counter",
		"bfserve_request_duration_seconds": "histogram",
		"bfserve_predictions_total":        "counter",
		"bfserve_batch_size":               "histogram",
		"bfserve_build_info":               "gauge",
		"bfserve_stage_duration_seconds":   "histogram",
		"bfserve_runcache_hits_total":      "gauge",
	} {
		if got := families[fam]; got != typ {
			t.Errorf("family %s: got type %q, want %q", fam, got, typ)
		}
	}

	// Unhit routes expose zero-valued counters from the first scrape.
	if v, ok := samples[`bfserve_requests_total{path="/v1/models",code="200"}`]; !ok || v != 0 {
		t.Errorf("missing zero-valued series for unhit route /v1/models (got %v, present %v)", v, ok)
	}
	// Hit routes report their real counts.
	if v := samples[`bfserve_requests_total{path="/v1/predict",code="200"}`]; v != 2 {
		t.Errorf("predict 200 count = %v, want 2", v)
	}
	if v := samples[`bfserve_requests_total{path="/v1/predict",code="400"}`]; v != 1 {
		t.Errorf("predict 400 count = %v, want 1", v)
	}
	// The request-latency histogram counts every request before the scrape.
	if v := samples["bfserve_request_duration_seconds_count"]; v != 3 {
		t.Errorf("request duration count = %v, want 3", v)
	}
	for _, series := range []string{
		`bfserve_predictions_total{model="default"}`,
		"bfserve_cache_hits_total",
		"bfserve_cache_misses_total",
	} {
		if _, ok := samples[series]; !ok {
			t.Errorf("scrape has no %s sample", series)
		}
	}
	// The extra registry's series ride along in the same scrape.
	if v := samples[`bfserve_runcache_hits_total{layer="mem"}`]; v != 7 {
		t.Errorf("runcache mem hits = %v, want 7", v)
	}
	// Build info carries version and the default model's engine.
	found := false
	for series := range samples {
		if strings.HasPrefix(series, "bfserve_build_info{") {
			found = true
			if !strings.Contains(series, `version="dev"`) || !strings.Contains(series, `engine=`) {
				t.Errorf("build info missing version/engine labels: %s", series)
			}
		}
	}
	if !found {
		t.Error("scrape has no bfserve_build_info sample")
	}
	// The never-hit coalesce_wait stage still exposes its full bucket set.
	if v, ok := samples[`bfserve_stage_duration_seconds_count{stage="coalesce_wait"}`]; !ok || v != 0 {
		t.Errorf("cold coalesce_wait histogram: count = %v, present %v; want 0 and present", v, ok)
	}
	// Queue and inference stages observed the predicts above.
	for _, stage := range []string{"queue", "inference"} {
		if v := samples[fmt.Sprintf("bfserve_stage_duration_seconds_count{stage=%q}", stage)]; v < 2 {
			t.Errorf("stage %s observed %v requests, want >= 2", stage, v)
		}
	}
}

// TestObservabilityDoesNotChangeResponses pins the determinism contract on
// the serving path: access logging, slow-request flagging, and the extra
// registry may only add headers and log lines, never change response bytes.
func TestObservabilityDoesNotChangeResponses(t *testing.T) {
	ps := testScaler(t, 3)
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, plainHS := newTestServer(t, ps, Config{})
	_, obsHS := newTestServer(t, ps, Config{
		AccessLog:   logger,
		SlowRequest: time.Nanosecond, // every request flags slow → Warn path
		Extra:       obs.NewRegistry(),
	})

	for _, body := range []string{
		`{"chars":{"size":256}}`,
		`{"batch":[{"size":64},{"size":128},{"size":4096}]}`,
		`{"chars":{"size":256}}`, // cache hit path
		`not json`,
	} {
		_, plain := postPredict(t, plainHS.URL, body)
		resp, traced := postPredict(t, obsHS.URL, body)
		if !bytes.Equal(plain, traced) {
			t.Fatalf("observability changed the response for %s:\nplain:  %s\ntraced: %s", body, plain, traced)
		}
		if resp.Header.Get("X-Request-ID") == "" {
			t.Fatal("response is missing the X-Request-ID header")
		}
	}

	// A client-provided request ID is echoed back, not replaced.
	req, err := http.NewRequest(http.MethodPost, obsHS.URL+"/v1/predict",
		strings.NewReader(`{"chars":{"size":256}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "client-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Fatalf("client request ID not echoed: got %q", got)
	}

	logs := logBuf.String()
	for _, want := range []string{
		`"msg":"request"`, `"request_id":`, `"path":"/v1/predict"`,
		`"status":200`, `"status":400`, `"slow":true`, `"level":"WARN"`,
		`"request_id":"client-abc-123"`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("access log missing %s\n---\n%s", want, logs)
		}
	}
}

// TestStageHistogramCoalesceWait checks the coalesce_wait stage records
// queue time when micro-batching is on, alongside inference observations
// from the drain path.
func TestStageHistogramCoalesceWait(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{BatchWindow: 200 * time.Microsecond})
	postPredict(t, hs.URL, `{"chars":{"size":256}}`)
	postPredict(t, hs.URL, `{"chars":{"size":512}}`)
	text := scrapeMetrics(t, hs.URL)
	_, samples := parseScrape(t, text)
	if v := samples[`bfserve_stage_duration_seconds_count{stage="coalesce_wait"}`]; v != 2 {
		t.Errorf("coalesce_wait count = %v, want 2", v)
	}
	if v := samples[`bfserve_stage_duration_seconds_count{stage="inference"}`]; v < 1 {
		t.Errorf("inference count = %v, want >= 1", v)
	}
}
