package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blackforest/internal/core"
	"blackforest/internal/dataset"
	"blackforest/internal/forest"
	"blackforest/internal/stats"
)

// testScaler trains a small ProblemScaler on synthetic data where size
// drives the counters and the counters drive time (the core package's
// fixture shape, rebuilt here since test helpers don't cross packages).
func testScaler(t testing.TB, seed uint64) *core.ProblemScaler {
	t.Helper()
	rng := stats.NewRNG(seed)
	n := 100
	sizes := make([]float64, n)
	driver := make([]float64, n)
	secondary := make([]float64, n)
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		s := float64(64 * (1 + rng.Intn(64)))
		sizes[i] = s
		driver[i] = 3*s + rng.NormFloat64()
		secondary[i] = math.Sqrt(s) * 10
		times[i] = 0.001*s + 0.0001*secondary[i] + 0.002*rng.NormFloat64()
	}
	frame, err := dataset.FromColumns(
		[]string{"size", "driver_counter", "secondary_counter", core.ResponseColumn},
		[][]float64{sizes, driver, secondary, times},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Forest = forest.Config{NTrees: 60}
	cfg.Seed = seed
	a, err := core.Analyze(frame, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.NewProblemScaler(a, 3, core.AutoModel)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func newTestServer(t testing.TB, ps *core.ProblemScaler, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Scaler = ps
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func postPredict(t testing.TB, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestPredictSingleMatchesDirect: the HTTP answer must carry time_ms
// bit-identical to an in-process PredictTime call — JSON float encoding in
// Go round-trips float64 exactly, so == is the right comparison.
func TestPredictSingleMatchesDirect(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{})

	for _, size := range []float64{64, 100, 512, 1000, 4096} {
		want, _, err := ps.PredictDetail(map[string]float64{"size": size})
		if err != nil {
			t.Fatal(err)
		}
		resp, raw := postPredict(t, hs.URL, fmt.Sprintf(`{"chars":{"size":%g}}`, size))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("size %v: status %d: %s", size, resp.StatusCode, raw)
		}
		var pr PredictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatalf("size %v: %v", size, err)
		}
		if len(pr.Predictions) != 1 {
			t.Fatalf("size %v: %d predictions", size, len(pr.Predictions))
		}
		if got := pr.Predictions[0].TimeMS; got != want {
			t.Fatalf("size %v: HTTP %v != direct %v", size, got, want)
		}
		if pr.Model.BundleVersion != core.BundleVersion || pr.Model.Response != ps.Response() {
			t.Fatalf("size %v: wrong model metadata: %+v", size, pr.Model)
		}
		if len(pr.Predictions[0].Counters) != len(ps.Models) {
			t.Fatalf("size %v: %d counters in response, model has %d",
				size, len(pr.Predictions[0].Counters), len(ps.Models))
		}
	}
}

// TestPredictConcurrentMixed hammers the server with interleaved single and
// batch requests from many goroutines (run under -race in CI) and checks
// every answer against the direct computation.
func TestPredictConcurrentMixed(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{CacheSize: 8})

	sizes := []float64{64, 128, 256, 512, 1024, 2048, 4096, 100, 300, 999}
	want := make(map[float64]float64, len(sizes))
	for _, s := range sizes {
		v, err := ps.PredictTime(map[string]float64{"size": s})
		if err != nil {
			t.Fatal(err)
		}
		want[s] = v
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				if (g+rep)%2 == 0 {
					// Single request.
					s := sizes[(g+rep)%len(sizes)]
					resp, err := http.Post(hs.URL+"/v1/predict", "application/json",
						strings.NewReader(fmt.Sprintf(`{"chars":{"size":%g}}`, s)))
					if err != nil {
						errCh <- err
						return
					}
					var pr PredictResponse
					err = json.NewDecoder(resp.Body).Decode(&pr)
					resp.Body.Close()
					if err != nil {
						errCh <- err
						return
					}
					if pr.Predictions[0].TimeMS != want[s] {
						errCh <- fmt.Errorf("single size %v: got %v want %v", s, pr.Predictions[0].TimeMS, want[s])
						return
					}
				} else {
					// Batch request over all sizes.
					var rows []string
					for _, s := range sizes {
						rows = append(rows, fmt.Sprintf(`{"size":%g}`, s))
					}
					body := `{"batch":[` + strings.Join(rows, ",") + `]}`
					resp, err := http.Post(hs.URL+"/v1/predict", "application/json", strings.NewReader(body))
					if err != nil {
						errCh <- err
						return
					}
					var pr PredictResponse
					err = json.NewDecoder(resp.Body).Decode(&pr)
					resp.Body.Close()
					if err != nil {
						errCh <- err
						return
					}
					if len(pr.Predictions) != len(sizes) {
						errCh <- fmt.Errorf("batch returned %d rows", len(pr.Predictions))
						return
					}
					for i, s := range sizes {
						if pr.Predictions[i].TimeMS != want[s] {
							errCh <- fmt.Errorf("batch row %d size %v: got %v want %v",
								i, s, pr.Predictions[i].TimeMS, want[s])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestMalformedRequestsReturn400JSON: every malformed body must yield a 400
// with a JSON error object, never a panic or an empty reply.
func TestMalformedRequestsReturn400JSON(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{MaxBatch: 4})

	cases := []string{
		``,
		`not json`,
		`{}`,
		`{"bogus":1}`,
		`{"chars":{"size":64},"batch":[{"size":64}]}`,
		`{"batch":[]}`,
		`{"batch":[null]}`,
		`{"batch":[{"size":1},{"size":2},{"size":3},{"size":4},{"size":5}]}`,
		`{"chars":{"size":64}} trailing`,
		`{"chars":{"wrong_characteristic":1}}`,
		`{"chars":{"size":"sixty-four"}}`,
	}
	for _, body := range cases {
		resp, raw := postPredict(t, hs.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("body %q: content type %q", body, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("body %q: error reply not JSON: %s", body, raw)
		}
	}

	// Wrong method.
	resp, err := http.Get(hs.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict: status %d, want 405", resp.StatusCode)
	}
}

// TestCacheHitReturnsSameBytes: a repeated identical request must be served
// from the cache with a byte-identical body, and the metrics must say so.
func TestCacheHitReturnsSameBytes(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{CacheSize: 16})

	body := `{"chars":{"size":768}}`
	resp1, raw1 := postPredict(t, hs.URL, body)
	resp2, raw2 := postPredict(t, hs.URL, body)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("cache hit changed the response bytes:\n%s\n%s", raw1, raw2)
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mraw)
	for _, want := range []string{
		"bfserve_cache_hits_total 1",
		"bfserve_cache_misses_total 1",
		"bfserve_cache_hit_rate 0.5",
		`bfserve_predictions_total{model="default"} 2`,
		`bfserve_requests_total{path="/v1/predict",code="200"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestCacheDisabled: negative cache size must serve correctly with no cache.
func TestCacheDisabled(t *testing.T) {
	ps := testScaler(t, 3)
	s, hs := newTestServer(t, ps, Config{CacheSize: -1})
	if s.registry.defaultSnapshot().cache != nil {
		t.Fatal("cache not disabled")
	}
	resp, raw := postPredict(t, hs.URL, `{"chars":{"size":256}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
}

// TestModelEndpoint sanity-checks GET /v1/model.
func TestModelEndpoint(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{})

	resp, err := http.Get(hs.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var rep ModelReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Model.BundleVersion != core.BundleVersion {
		t.Fatalf("bundle version %d", rep.Model.BundleVersion)
	}
	if rep.NumTrees != ps.Reduced.Forest.NumTrees() {
		t.Fatalf("num_trees %d", rep.NumTrees)
	}
	if len(rep.Importance) != len(ps.Reduced.Predictors) {
		t.Fatalf("%d importance rows for %d predictors", len(rep.Importance), len(rep.Predictors))
	}
	if len(rep.CounterModels) != len(ps.Models) {
		t.Fatalf("%d counter models reported, scaler has %d", len(rep.CounterModels), len(ps.Models))
	}
}

func TestHealthz(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestGracefulShutdownCompletesInFlight cancels the serve context while a
// request is held in flight by the test hook; the request must still get its
// 200, and new connections must be refused afterwards.
func TestGracefulShutdownCompletesInFlight(t *testing.T) {
	ps := testScaler(t, 3)
	s, err := New(Config{Scaler: ps, ShutdownGrace: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.testHookPredict = func() {
		hookOnce.Do(func() {
			close(entered)
			<-release
		})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	type result struct {
		code int
		raw  []byte
		err  error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/predict", "application/json",
			strings.NewReader(`{"chars":{"size":640}}`))
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		reqDone <- result{code: resp.StatusCode, raw: raw}
	}()

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the predictor")
	}
	cancel() // begin graceful shutdown with the request in flight
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case r := <-reqDone:
		if r.err != nil {
			t.Fatalf("in-flight request failed during shutdown: %v", r.err)
		}
		if r.code != 200 {
			t.Fatalf("in-flight request got %d: %s", r.code, r.raw)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestSaveLoadServeBitIdentical is the acceptance criterion end to end: a
// bundle written by the training side, loaded the way cmd/bfserve loads it,
// must answer over HTTP with the same time_ms (to the last bit) as the
// in-process scaler it was saved from.
func TestSaveLoadServeBitIdentical(t *testing.T) {
	trained := testScaler(t, 9)
	path := t.TempDir() + "/model.json"
	if err := trained.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadProblemScalerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, loaded, Config{})

	for _, size := range []float64{64, 137, 512, 2048, 4096} {
		want, err := trained.PredictTime(map[string]float64{"size": size})
		if err != nil {
			t.Fatal(err)
		}
		resp, raw := postPredict(t, hs.URL, fmt.Sprintf(`{"chars":{"size":%g}}`, size))
		if resp.StatusCode != 200 {
			t.Fatalf("size %v: status %d: %s", size, resp.StatusCode, raw)
		}
		var pr PredictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		if got := pr.Predictions[0].TimeMS; got != want {
			t.Fatalf("size %v: served %v != trained in-process %v", size, got, want)
		}
	}
}

// FuzzDecodePredictRequest: arbitrary bytes must never panic the decoder.
func FuzzDecodePredictRequest(f *testing.F) {
	f.Add([]byte(`{"chars":{"size":64}}`))
	f.Add([]byte(`{"batch":[{"size":64},{"size":128}]}`))
	f.Add([]byte(`{"chars":{"size":64},"batch":[]}`))
	f.Add([]byte(`{"batch":[null]}`))
	f.Add([]byte(`{"bogus":1}`))
	f.Add([]byte(`{"chars":{"size":"NaN"}}`))
	f.Add([]byte(``))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodePredictRequest(bytes.NewReader(data), 8)
		if err != nil {
			return
		}
		// Decoded requests must satisfy the documented invariants.
		if (req.Chars != nil) == (req.Batch != nil) {
			t.Fatalf("decoder returned both or neither of chars/batch: %+v", req)
		}
		if req.Batch != nil {
			if len(req.Batch) == 0 || len(req.Batch) > 8 {
				t.Fatalf("decoder let through batch of %d rows", len(req.Batch))
			}
			for i, row := range req.Batch {
				if row == nil {
					t.Fatalf("decoder let through null row %d", i)
				}
			}
		}
	})
}
