package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"blackforest/internal/core"
	"blackforest/internal/loadgen"
	"blackforest/internal/serve"
	"blackforest/internal/stats"
)

// Serving traffic settings, fixed so every run offers the same load.
const (
	// nominalRPS is the open-loop rate of a traced run, about half of what
	// the server sustains on a 2-vCPU Xeon.
	nominalRPS = 7000.0
	// lagSlackMS is how much later the last quarter of a phase's sends may
	// run behind schedule than its first quarter before the backlog counts
	// as growing.
	lagSlackMS = 1.0
	// abortLag stops a phase whose generator has fallen this far behind:
	// the rate is over capacity, and draining the backlog measures nothing.
	abortLag = 250 * time.Millisecond
	// hotVectors is the size of serve-hot's working set, well inside the
	// server's 1024-entry prediction cache.
	hotVectors = 256
	// warmupS is the untimed traffic before the nominal phase, which lets
	// connections, the Go heap and (on serve-hot) the cache settle.
	warmupS = 0.5
	// windowS is the length of the nominal phase's percentile windows: at
	// the nominal rate each holds enough requests to support a p99.
	windowS = 0.5
	// batchRequests is how many requests one closed-loop batch sends,
	// about a quarter second's worth on a 2-vCPU Xeon.
	batchRequests = 4000
)

// liveServer is a bfserve instance on a loopback listener, configured as
// cmd/bfserve configures it by default.
type liveServer struct {
	base   string
	client *http.Client
	stop   func() error
}

// startServer serves the bundle at path. Access logs are formatted as
// bfserve formats them but discarded, so the benchmark's stderr stays
// readable.
func startServer(path string, conns int) (*liveServer, error) {
	srv, err := serve.New(serve.Config{
		ModelPath:      path,
		CacheSize:      1024,
		RequestTimeout: 15 * time.Second,
		BatchMaxSize:   32,
		MaxInFlight:    256,
		AccessLog:      slog.New(slog.NewJSONHandler(io.Discard, nil)),
		SlowRequest:    time.Second,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	ls := &liveServer{
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		stop: func() error {
			cancel()
			err := <-done
			tr.CloseIdleConnections()
			return err
		},
	}
	resp, err := ls.client.Get(ls.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, ls.stop())
	}
	return ls, nil
}

// scrape reads the server's /metrics as series → value.
func (ls *liveServer) scrape() (map[string]float64, error) {
	resp, err := ls.client.Get(ls.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// traffic generates the request vectors of one serving workload; request i
// always carries the same vector for a given seed.
type traffic struct {
	names []string
	vec   func(i int) []float64
}

// uniqueTraffic draws every request's vector afresh from the bundle's
// training range (loadgen.DistsFromScaler), so no two requests share one.
func uniqueTraffic(ps *core.ProblemScaler, seed uint64) traffic {
	dists := loadgen.DistsFromScaler(ps)
	names := make([]string, len(dists))
	for j, d := range dists {
		names[j] = d.Name
	}
	return traffic{names: names, vec: func(i int) []float64 {
		rng := stats.NewRNG(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		v := make([]float64, len(dists))
		for j, d := range dists {
			v[j] = d.Min + (d.Max-d.Min)*rng.Float64()
			if d.Jitter > 0 {
				v[j] *= 1 + d.Jitter*(2*rng.Float64()-1)
			}
		}
		return v
	}}
}

// hotTraffic draws requests from hotVectors fixed vectors with Zipf (s = 1)
// popularity: the vector of popularity rank k is chosen with probability
// proportional to 1/k.
func hotTraffic(ps *core.ProblemScaler, seed uint64) traffic {
	u := uniqueTraffic(ps, seed^0x686f74)
	pool := make([][]float64, hotVectors)
	cdf := make([]float64, hotVectors)
	var total float64
	for k := range pool {
		pool[k] = u.vec(k)
		total += 1 / float64(k+1)
		cdf[k] = total
	}
	return traffic{names: u.names, vec: func(i int) []float64 {
		x := stats.NewRNG(seed^(uint64(i)+1)*0xbf58476d1ce4e5b9).Float64() * total
		return pool[min(sort.SearchFloat64s(cdf, x), hotVectors-1)]
	}}
}

// chars returns request i's vector as a characteristics map.
func (t traffic) chars(i int) map[string]float64 {
	v := t.vec(i)
	m := make(map[string]float64, len(v))
	for j, n := range t.names {
		m[n] = v[j]
	}
	return m
}

// body renders request i as a single-predict JSON body; 'g'/-1 formatting
// round-trips every float exactly.
func (t traffic) body(i int) []byte {
	b := []byte(`{"chars":{`)
	for j, v := range t.vec(i) {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, t.names[j])
		b = append(b, ':')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, "}}"...)
}

// generator drives one server, open or closed loop. Request indices keep
// counting across phases, so on serve-unique no vector ever repeats.
type generator struct {
	srv     *liveServer
	traffic traffic
	conns   int
	next    int
}

// phaseRun is one phase of traffic at one offered rate.
type phaseRun struct {
	rate    float64
	first   int // request index of samples[0]
	samples []sample
	bodies  [][]byte
	codes   []int
	aborted bool
	cpuS    float64
}

// newPhase reserves the next n request indices for a phase.
func (g *generator) newPhase(rate float64, n int) *phaseRun {
	p := &phaseRun{rate: rate, first: g.next, bodies: make([][]byte, n), codes: make([]int, n)}
	g.next += n
	return p
}

// send returns the phase's request sender: it posts request i and keeps
// the answer for checking.
func (g *generator) send(p *phaseRun) func(i int) bool {
	url := g.srv.base + "/v1/predict"
	return func(i int) bool {
		resp, err := g.srv.client.Post(url, "application/json", bytes.NewReader(g.traffic.body(p.first+i)))
		if err != nil {
			return false
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return false
		}
		p.bodies[i], p.codes[i] = b, resp.StatusCode
		return resp.StatusCode == http.StatusOK
	}
}

// run offers rate requests per second for d.
func (g *generator) run(rate float64, d time.Duration) *phaseRun {
	p := g.newPhase(rate, max(int(rate*d.Seconds()), 1))
	cpu0 := cpuSeconds()
	p.samples, p.aborted = openLoop(wallClock{time.Now()}, rate, len(p.codes), g.conns, abortLag, g.send(p))
	p.cpuS = cpuSeconds() - cpu0
	return p
}

// saturate sends n requests closed loop, so the server is never idle.
func (g *generator) saturate(n int) *phaseRun {
	p := g.newPhase(0, n)
	cpu0 := cpuSeconds()
	p.samples = closedLoop(wallClock{time.Now()}, n, g.conns, g.send(p))
	p.cpuS = cpuSeconds() - cpu0
	return p
}

// phaseStats summarizes a phase's issued requests. Latency percentiles
// are medians over equal windows of the phase's schedule, so one transient
// stall on the shared host moves one window, not the result.
type phaseStats struct {
	n             int
	p50MS, tailMS float64
	tail          string // the windows' tail percentile, e.g. "p99"
	p99MS         float64
	lagP99MS      float64
	meanServiceMS float64
	lagGrows      bool
	goodputRPS    float64 // answered requests per second, phase start to last answer
	failed        int     // set by the caller once the answers are checked
}

func (p *phaseRun) stats(windows int) phaseStats {
	is := issued(p.samples)
	st := phaseStats{n: len(is)}
	if len(is) == 0 {
		return st
	}
	lags := make([]float64, len(is))
	svc := make([]float64, len(is))
	var last time.Duration
	ok := 0
	for i, s := range is {
		lags[i] = s.lagMS()
		svc[i] = s.serviceMS()
		last = max(last, s.done)
		if s.ok {
			ok++
		}
	}
	st.lagGrows = lagGrows(lags, lagSlackMS)
	st.meanServiceMS = mean(svc)
	if last > 0 {
		st.goodputRPS = float64(ok) / last.Seconds()
	}
	var p50s, p99s, tails, lagP99s []float64
	p99 := pct{"p99", 99, 100}
	for _, w := range splitWindows(is, windows) {
		if len(w) == 0 {
			continue // after an abort
		}
		lat := sortedBy(w, sample.latencyMS)
		p50s = append(p50s, pct{"p50", 1, 2}.at(lat))
		p99s = append(p99s, p99.at(lat))
		if tp, found := tailPct(len(lat)); found {
			st.tail = tp.name
			tails = append(tails, tp.at(lat))
		}
		lagP99s = append(lagP99s, p99.at(sortedBy(w, sample.lagMS)))
	}
	st.p50MS, st.p99MS, st.tailMS, st.lagP99MS = median(p50s), median(p99s), median(tails), median(lagP99s)
	return st
}

// splitWindows splits samples, in schedule order, into k windows of equal
// schedule length.
func splitWindows(samples []sample, k int) [][]sample {
	span := samples[len(samples)-1].due + 1
	out := make([][]sample, k)
	for _, s := range samples {
		w := int(int64(s.due) * int64(k) / int64(span))
		out[w] = append(out[w], s)
	}
	return out
}

// traceServe runs the traced serving run: open-loop traffic at the nominal
// rate for d, timed from each request's due time, with the server's
// /metrics deltas over it, then an in-process replay of its requests.
func traceServe(rep *report, srv *liveServer, g *generator, measure func(*phaseRun, int) phaseStats,
	ps *core.ProblemScaler, model serve.ModelInfo, d time.Duration) error {
	before, err := srv.scrape()
	if err != nil {
		return err
	}
	alloc0 := allocMB()
	nom := g.run(nominalRPS, d)
	ns := measure(nom, max(int(d.Seconds()/windowS), 1))
	allocKB := (allocMB() - alloc0) * 1024 / float64(ns.n)
	after, err := srv.scrape()
	if err != nil {
		return err
	}
	rep.note("nominal %g req/s: %d requests, p50 %.4g ms, p99 %.4g ms, %s %.4g ms, send lag p99 %.4g ms, lag grows %v",
		nominalRPS, ns.n, ns.p50MS, ns.p99MS, ns.tail, ns.tailMS, ns.lagP99MS, ns.lagGrows)

	delta := func(series string) float64 { return after[series] - before[series] }
	perReq := func(family, labels string) float64 {
		if n := delta(family + "_count" + labels); n > 0 {
			return delta(family+"_sum"+labels) / n * 1e6
		}
		return 0
	}
	const stages = "bfserve_stage_duration_seconds"
	req := perReq("bfserve_request_duration_seconds", "")
	queue := perReq(stages, `{stage="queue"}`)
	coal := perReq(stages, `{stage="coalesce_wait"}`)
	inf := perReq(stages, `{stage="inference"}`)
	rep.set("serve.request_us", req, "us")
	rep.set("serve.stage_queue_us", queue, "us")
	rep.set("serve.stage_coalesce_wait_us", coal, "us")
	rep.set("serve.stage_inference_us", inf, "us")
	rep.set("serve.unattributed_us", req-queue-coal-inf, "us")
	hits, misses := delta("bfserve_cache_hits_total"), delta("bfserve_cache_misses_total")
	rep.set("serve.cache_hits", hits, "count")
	rep.set("serve.cache_misses", misses, "count")
	rep.set("serve.cache_lookups", hits+misses, "count")
	if hits+misses > 0 {
		rep.set("serve.cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	rep.set("serve.shed", delta("bfserve_shed_total"), "count")
	rep.set("net.overhead_us", ns.meanServiceMS*1e3-req, "us")
	rep.set("client.open_loop_p50_ms", ns.p50MS, "ms")
	rep.set("client.open_loop_p99_ms", ns.p99MS, "ms")
	rep.set("client.send_lag_p99_ms", ns.lagP99MS, "ms")
	rep.set("runtime.alloc_kb_per_req", allocKB, "KB")
	stagesUS, err := replay(ps, model, g.traffic, nom.first, min(ns.n, 2000))
	if err != nil {
		return err
	}
	for name, v := range stagesUS {
		rep.set(name, v, "us")
	}
	return nil
}

// expectation is an in-process prediction a response must reproduce.
type expectation struct {
	timeMS   float64
	counters map[string]float64
}

// checker verifies responses bit for bit against PredictDetail on the
// bundle loaded in-process. With a memo, expectations of repeated vectors
// (serve-hot) are computed once.
type checker struct {
	ps    *core.ProblemScaler
	memo  map[string]expectation
	model serve.ModelInfo
}

// check counts the phase's issued requests that failed: transport errors,
// non-2xx answers, and answers that differ from the in-process prediction.
// It runs after the phase, so checking costs no serving capacity.
func (c *checker) check(p *phaseRun, t traffic) (failed int, firstErr error) {
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	for i, s := range p.samples {
		if !s.issued {
			continue
		}
		if !s.ok {
			fail(fmt.Errorf("request %d: status %d", p.first+i, p.codes[i]))
			continue
		}
		var resp serve.PredictResponse
		if err := json.Unmarshal(p.bodies[i], &resp); err != nil || len(resp.Predictions) != 1 {
			fail(fmt.Errorf("request %d: undecodable answer %q", p.first+i, p.bodies[i]))
			continue
		}
		want, err := c.expect(t, p.first+i)
		if err != nil {
			fail(err)
			continue
		}
		if err := sameBits(resp.Predictions[0], want); err != nil {
			fail(fmt.Errorf("request %d: %w", p.first+i, err))
			continue
		}
		c.model = resp.Model
	}
	p.bodies = nil
	return failed, firstErr
}

func (c *checker) expect(t traffic, i int) (expectation, error) {
	var key string
	if c.memo != nil {
		key = fmt.Sprint(t.vec(i))
		if e, ok := c.memo[key]; ok {
			return e, nil
		}
	}
	tm, counters, err := c.ps.PredictDetail(t.chars(i))
	if err != nil {
		return expectation{}, err
	}
	e := expectation{timeMS: tm, counters: counters}
	if c.memo != nil {
		c.memo[key] = e
	}
	return e, nil
}

func sameBits(got serve.Prediction, want expectation) error {
	if math.Float64bits(got.TimeMS) != math.Float64bits(want.timeMS) {
		return fmt.Errorf("served time_ms %v, in-process %v", got.TimeMS, want.timeMS)
	}
	if len(got.Counters) != len(want.counters) {
		return fmt.Errorf("served %d counters, in-process %d", len(got.Counters), len(want.counters))
	}
	for name, v := range want.counters {
		if g, ok := got.Counters[name]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			return fmt.Errorf("served counter %s = %v, in-process %v", name, g, v)
		}
	}
	return nil
}

// replay times the serving stages in-process over the given requests'
// bodies: request decode, counter-model evaluation, the flat-forest walk,
// the whole PredictDetail, and response encoding. It returns mean µs per
// request for each stage.
func replay(ps *core.ProblemScaler, model serve.ModelInfo, t traffic, first, n int) (map[string]float64, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = t.body(first + i)
	}
	sums := map[string]float64{}
	timeIt := func(name string, f func() error) error {
		tm := startTimer()
		err := f()
		sums[name] += tm.seconds()
		return err
	}
	for _, body := range bodies {
		var req *serve.PredictRequest
		err := timeIt("serve.decode_us", func() (err error) {
			req, err = serve.DecodePredictRequest(bytes.NewReader(body), 4096)
			return err
		})
		if err != nil {
			return nil, err
		}
		charVec := make([]float64, len(ps.CharNames))
		for j, name := range ps.CharNames {
			charVec[j] = req.Chars[name]
		}
		x := make([]float64, len(ps.Reduced.Predictors))
		_ = timeIt("core.counter_predict_us", func() error {
			for j, name := range ps.Reduced.Predictors {
				if m, ok := ps.Models[name]; ok {
					x[j] = m.Predict(charVec)
				} else {
					x[j] = req.Chars[name]
				}
			}
			return nil
		})
		var walked float64
		if err := timeIt("forest.walk_us", func() (err error) {
			walked, err = ps.Reduced.Forest.PredictVector(x)
			return err
		}); err != nil {
			return nil, err
		}
		var tm float64
		var counters map[string]float64
		if err := timeIt("core.predict_detail_us", func() (err error) {
			tm, counters, err = ps.PredictDetail(req.Chars)
			return err
		}); err != nil {
			return nil, err
		}
		if math.Float64bits(tm) != math.Float64bits(walked) {
			return nil, fmt.Errorf("replayed forest walk %v differs from PredictDetail %v", walked, tm)
		}
		if err := timeIt("serve.encode_us", func() error {
			return json.NewEncoder(io.Discard).Encode(serve.PredictResponse{
				Model: model, Predictions: []serve.Prediction{{TimeMS: tm, Counters: counters}},
			})
		}); err != nil {
			return nil, err
		}
	}
	for k := range sums {
		sums[k] = sums[k] / float64(n) * 1e6
	}
	return sums, nil
}
