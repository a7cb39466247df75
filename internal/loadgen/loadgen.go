// Package loadgen replays synthetic predict traffic against a running
// bfserve instance and reports throughput and latency quantiles. It is the
// measurement half of the serving story: the registry and coalescer decide
// how requests are scheduled, loadgen tells you what that scheduling costs
// at a given concurrency and offered rate.
//
// Request bodies are deterministic: request i's characteristic vector is a
// pure function of (Seed, i), sampled from per-characteristic distributions
// — typically derived from a bundle's training scales via DistsFromScaler —
// so two runs with the same seed offer the identical request sequence and
// results are comparable across server configurations.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blackforest/internal/core"
	"blackforest/internal/stats"
)

// CharDist is the sampling distribution of one characteristic: uniform on
// [Min, Max] with optional multiplicative jitter (each sample is scaled by
// 1 ± Jitter), so replayed traffic covers the model's trained range without
// being a fixed grid that caches trivially.
type CharDist struct {
	Name   string  `json:"name"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Jitter float64 `json:"jitter,omitempty"`
}

// sample draws this characteristic's value for one request from rng.
func (d CharDist) sample(rng *stats.RNG) float64 {
	v := d.Min + (d.Max-d.Min)*rng.Float64()
	if d.Jitter > 0 {
		v *= 1 + d.Jitter*(2*rng.Float64()-1)
	}
	return v
}

// DistsFromScaler derives per-characteristic distributions from a bundle's
// training scales (the max-abs value of each characteristic seen during
// fitting): uniform over [scale/20, scale] with 5% jitter, covering the
// trained range without extrapolating far outside it.
func DistsFromScaler(ps *core.ProblemScaler) []CharDist {
	scales := ps.CharacteristicScales()
	dists := make([]CharDist, 0, len(ps.CharNames))
	for _, name := range ps.CharNames {
		s := scales[name]
		if s <= 0 {
			s = 1
		}
		dists = append(dists, CharDist{Name: name, Min: s / 20, Max: s, Jitter: 0.05})
	}
	return dists
}

// Config configures one load-generation run.
type Config struct {
	// BaseURL is the bfserve root, e.g. "http://localhost:8391".
	BaseURL string
	// Model optionally routes requests to /v1/models/{Model}/predict;
	// empty replays against the legacy default-model route /v1/predict.
	Model string
	// N is the total number of predict requests to send.
	N int
	// Concurrency is the number of worker connections (0 = 8).
	Concurrency int
	// QPS caps the offered request rate; 0 sends as fast as the workers
	// can (closed loop).
	QPS float64
	// Seed makes the synthetic request sequence reproducible.
	Seed uint64
	// Chars are the per-characteristic sampling distributions; required.
	Chars []CharDist
	// Timeout bounds each request (0 = 10s).
	Timeout time.Duration
	// Client optionally overrides the HTTP client (httptest injection);
	// its Timeout field is left untouched.
	Client *http.Client
}

// Report is the JSON result of a run.
type Report struct {
	URL         string         `json:"url"`
	Model       string         `json:"model,omitempty"`
	Requests    int            `json:"requests"`
	Errors      int            `json:"errors"`
	StatusCount map[string]int `json:"status_counts"`
	Concurrency int            `json:"concurrency"`
	QPS         float64        `json:"target_qps,omitempty"`
	Seed        uint64         `json:"seed"`
	DurationMS  float64        `json:"duration_ms"`
	Throughput  float64        `json:"throughput_rps"`
	LatencyMS   Latency        `json:"latency_ms"`
}

// Latency summarizes per-request latency in milliseconds; the percentiles
// interpolate between order statistics (stats.Quantile).
type Latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// body builds request i's JSON body: a fresh RNG seeded from (Seed, i)
// makes every request's vector independent of worker scheduling.
func body(cfg *Config, i int) []byte {
	rng := stats.NewRNG(cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	var buf bytes.Buffer
	buf.WriteString(`{"chars":{`)
	for j, d := range cfg.Chars {
		if j > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:%s", d.Name,
			strconv.FormatFloat(d.sample(rng), 'g', -1, 64))
	}
	buf.WriteString(`}}`)
	return buf.Bytes()
}

// Run replays cfg.N predict requests and reports throughput and latency.
// Non-2xx answers and transport failures count as errors; the run itself
// fails only on invalid configuration or a canceled context.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: BaseURL is required")
	}
	if cfg.N <= 0 {
		return nil, errors.New("loadgen: N must be positive")
	}
	if len(cfg.Chars) == 0 {
		return nil, errors.New("loadgen: at least one characteristic distribution is required")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	url := cfg.BaseURL + "/v1/predict"
	if cfg.Model != "" {
		url = cfg.BaseURL + "/v1/models/" + cfg.Model + "/predict"
	}

	latencies := make([]float64, cfg.N) // ms; index = request number
	codes := make([]int, cfg.N)         // 0 = transport error
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.N || ctx.Err() != nil {
					return
				}
				if cfg.QPS > 0 {
					// Open-loop pacing: request i is due at start + i/QPS.
					due := start.Add(time.Duration(float64(i) / cfg.QPS * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				}
				t0 := time.Now()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, url,
					bytes.NewReader(body(&cfg, i)))
				if err != nil {
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				if err != nil {
					latencies[i] = float64(time.Since(t0)) / float64(time.Millisecond)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				latencies[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				codes[i] = resp.StatusCode
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: run canceled: %w", err)
	}

	rep := &Report{
		URL:         url,
		Model:       cfg.Model,
		Requests:    cfg.N,
		StatusCount: make(map[string]int),
		Concurrency: cfg.Concurrency,
		QPS:         cfg.QPS,
		Seed:        cfg.Seed,
		DurationMS:  float64(elapsed) / float64(time.Millisecond),
	}
	ok := 0
	okLat := make([]float64, 0, cfg.N)
	for i, code := range codes {
		switch {
		case code == 0:
			rep.Errors++
			rep.StatusCount["transport_error"]++
		case code >= 200 && code < 300:
			ok++
			rep.StatusCount[strconv.Itoa(code)]++
			okLat = append(okLat, latencies[i])
		default:
			rep.Errors++
			rep.StatusCount[strconv.Itoa(code)]++
		}
	}
	if elapsed > 0 {
		rep.Throughput = float64(ok) / elapsed.Seconds()
	}
	rep.LatencyMS = latencyOf(okLat)
	return rep, nil
}

// latencyOf summarizes the successful requests' latencies; no samples
// give the zero Latency.
func latencyOf(ms []float64) Latency {
	if len(ms) == 0 {
		return Latency{}
	}
	return Latency{
		Mean: stats.Mean(ms),
		P50:  stats.Quantile(ms, 0.50),
		P90:  stats.Quantile(ms, 0.90),
		P99:  stats.Quantile(ms, 0.99),
		Max:  stats.Max(ms),
	}
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
