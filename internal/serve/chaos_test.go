package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blackforest/internal/core"
	"blackforest/internal/faults"
)

func TestChaosInjectedErrorsDeterministic(t *testing.T) {
	ps := testScaler(t, 3)
	statuses := func() []int {
		_, hs := newTestServer(t, ps, Config{
			Faults: faults.New(faults.Config{Seed: 42, ServeError: 0.5}),
		})
		var out []int
		for i := 0; i < 20; i++ {
			resp, raw := postPredict(t, hs.URL, `{"chars":{"size":256}}`)
			switch resp.StatusCode {
			case http.StatusOK:
			case http.StatusInternalServerError:
				if !strings.Contains(string(raw), "injected fault") {
					t.Fatalf("500 without injected-fault marker: %s", raw)
				}
			default:
				t.Fatalf("unexpected status %d: %s", resp.StatusCode, raw)
			}
			out = append(out, resp.StatusCode)
		}
		return out
	}
	a, b := statuses(), b2i(t, statuses)
	okA, errA := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: status %d vs %d across identical servers", i, a[i], b[i])
		}
		if a[i] == http.StatusOK {
			okA++
		} else {
			errA++
		}
	}
	if okA == 0 || errA == 0 {
		t.Fatalf("error=0.5 over 20 requests gave %d ok / %d injected", okA, errA)
	}
}

// b2i just invokes the closure; it keeps the two sequences visually paired.
func b2i(t *testing.T, f func() []int) []int {
	t.Helper()
	return f()
}

func TestChaosInjectedErrorCountsInMetrics(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{
		Faults: faults.New(faults.Config{Seed: 1, ServeError: 1}),
	})
	resp, raw := postPredict(t, hs.URL, `{"chars":{"size":256}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	// Health and model endpoints are not in the injection path.
	for _, path := range []string{"/healthz", "/v1/model"} {
		r, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s returned %d under predict-only injection", path, r.StatusCode)
		}
	}
	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	body, _ := io.ReadAll(mr.Body)
	if !strings.Contains(string(body), "bfserve_injected_faults_total 1") {
		t.Fatalf("metrics do not count the injected fault:\n%s", body)
	}
}

func TestChaosInjectedLatencyBoundedByTimeout(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{
		RequestTimeout: 80 * time.Millisecond,
		Faults: faults.New(faults.Config{
			Seed: 1, ServeLatency: 1, LatencySpike: 10 * time.Second,
		}),
	})
	start := time.Now()
	resp, raw := postPredict(t, hs.URL, `{"chars":{"size":256}}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (want 503 from the timeout handler): %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "timed out") {
		t.Fatalf("timeout body missing: %s", raw)
	}
	// The injected 10s spike is bounded by the request deadline: the
	// response arrives at ~80ms, far before the spike would elapse.
	if elapsed > 5*time.Second {
		t.Fatalf("request took %v; injected sleep ignored the deadline", elapsed)
	}
}

func TestChaosLoadShedding(t *testing.T) {
	ps := testScaler(t, 3)
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s, hs := newTestServer(t, ps, Config{
		MaxInFlight: 1,
		CacheSize:   -1, // every request reaches the predict hook
	})
	s.testHookPredict = func() {
		entered <- struct{}{}
		<-release
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(hs.URL+"/v1/predict", "application/json",
			strings.NewReader(`{"chars":{"size":256}}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered // first request is now holding the only in-flight slot

	resp, raw := postPredict(t, hs.URL, `{"chars":{"size":512}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request got %d (want 503 shed): %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "overloaded") {
		t.Fatalf("shed body: %s", raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	close(release)
	wg.Wait()

	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	body, _ := io.ReadAll(mr.Body)
	if !strings.Contains(string(body), "bfserve_shed_total 1") {
		t.Fatalf("metrics do not count the shed request:\n%s", body)
	}
}

func TestChaosDeadlineStopsBatchWork(t *testing.T) {
	ps := testScaler(t, 3)
	var rowsPredicted atomic.Int64
	s, hs := newTestServer(t, ps, Config{
		RequestTimeout: 60 * time.Millisecond,
		CacheSize:      -1,
	})
	s.testHookPredict = func() {
		rowsPredicted.Add(1)
		time.Sleep(5 * time.Millisecond)
	}

	const rows = 400
	var sb strings.Builder
	sb.WriteString(`{"batch":[`)
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"size":%d}`, 64+i)
	}
	sb.WriteString(`]}`)

	resp, raw := postPredict(t, hs.URL, sb.String())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (want 503 timeout): %s", resp.StatusCode, raw)
	}
	// Give the abandoned handler goroutine a moment to observe ctx.Err
	// and stop, then confirm it did not grind through the whole batch.
	deadline := time.Now().Add(2 * time.Second)
	var settled int64
	for time.Now().Before(deadline) {
		n := rowsPredicted.Load()
		time.Sleep(50 * time.Millisecond)
		if rowsPredicted.Load() == n {
			settled = n
			break
		}
	}
	if settled == 0 || settled >= rows {
		t.Fatalf("predicted %d of %d rows after timeout; deadline not propagated", settled, rows)
	}
}

// TestChaosReloadFailureKeepsPreviousModel: a watch-loop reload whose
// bundle read is fault-injected (truncated) must leave the previous model
// serving — same answers, model still listed — while
// bfserve_reload_failures_total counts the failure. Degrade, never crash.
func TestChaosReloadFailureKeepsPreviousModel(t *testing.T) {
	ps := testScaler(t, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "only.json")
	if err := ps.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// The loader reads faithfully once (initial load), then through a
	// truncating injector: every subsequent reload fails mid-read the way
	// a half-written bundle or failing disk would.
	truncating := faults.New(faults.Config{Seed: 9, TruncateReads: 1})
	var loads atomic.Int64
	loader := func(p string) (*core.ProblemScaler, error) {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var r io.Reader = f
		if loads.Add(1) > 1 {
			r = truncating.WrapReader(f, faults.HashString(p))
		}
		return core.LoadProblemScaler(r)
	}
	s, err := New(Config{ModelsDir: dir, Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, s)
	want := predictVia(t, hs.URL, "/v1/predict", 512)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reloadErrs := make(chan error, 16)
	go s.Watch(ctx, 5*time.Millisecond, func(err error) {
		select {
		case reloadErrs <- err:
		default:
		}
	})

	// Touch the bundle so the next watch tick sees a changed signature and
	// attempts the (now failing) reload.
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-reloadErrs:
		if !strings.Contains(err.Error(), "unexpected EOF") {
			t.Fatalf("reload error %q does not carry the truncation cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch loop never reported the failing reload")
	}

	// The previous model keeps serving identical answers.
	if got := predictVia(t, hs.URL, "/v1/predict", 512); got != want {
		t.Fatalf("prediction changed after failed reload: %v vs %v", got, want)
	}
	names, _ := s.Models()
	if len(names) != 1 || names[0] != "only" {
		t.Fatalf("model dropped after failed reload: %v", names)
	}
	text := scrapeMetrics(t, hs.URL)
	i := strings.Index(text, "\nbfserve_reload_failures_total ")
	if i < 0 {
		t.Fatalf("metrics missing bfserve_reload_failures_total:\n%s", text)
	}
	var failures int
	if _, err := fmt.Sscanf(text[i+1:], "bfserve_reload_failures_total %d", &failures); err != nil || failures < 1 {
		t.Fatalf("bfserve_reload_failures_total = %d (%v), want >= 1", failures, err)
	}
}

func TestChaosFaultsOffBitIdentical(t *testing.T) {
	ps := testScaler(t, 3)
	_, plain := newTestServer(t, ps, Config{})
	_, nilInj := newTestServer(t, ps, Config{
		Faults:      faults.New(faults.Config{Seed: 7}), // disabled → nil
		MaxInFlight: 64,
	})
	for _, size := range []float64{64, 256, 1024} {
		body := fmt.Sprintf(`{"chars":{"size":%g}}`, size)
		r1, raw1 := postPredict(t, plain.URL, body)
		r2, raw2 := postPredict(t, nilInj.URL, body)
		if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
			t.Fatalf("status %d / %d", r1.StatusCode, r2.StatusCode)
		}
		var p1, p2 PredictResponse
		if err := json.Unmarshal(raw1, &p1); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw2, &p2); err != nil {
			t.Fatal(err)
		}
		if p1.Predictions[0].TimeMS != p2.Predictions[0].TimeMS {
			t.Fatalf("faults-off server predicts differently at size %g", size)
		}
	}
}
