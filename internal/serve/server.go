// Package serve exposes a fitted ProblemScaler as a concurrent HTTP
// prediction service: the train-once / predict-cheaply split the serving
// north star needs. A model bundle trained by cmd/blackforest -save is
// loaded once; every query is then answered from the in-memory forest and
// counter models, with a bounded LRU cache in front (predictions are a pure
// function of the characteristic vector, so caching is sound).
//
// Endpoints:
//
//	POST /v1/predict  single {"chars": {...}} or batched {"batch": [...]}
//	GET  /v1/model    model metadata, importance table, validation stats
//	GET  /healthz     liveness
//	GET  /metrics     Prometheus text: request counts, request-latency
//	                  histogram, cache hit rate
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"blackforest/internal/buildinfo"
	"blackforest/internal/core"
	"blackforest/internal/faults"
	"blackforest/internal/obs"
)

// DefaultModelName is the registry name of the model behind the legacy
// single-model routes when no manifest or override elects one.
const DefaultModelName = "default"

// Config configures the prediction server. Exactly one model source is
// required: Scaler (in-memory), ModelPath (one bundle file, reloadable), or
// ModelsDir (a directory of bundles, optionally with a manifest.json).
type Config struct {
	// Scaler is an in-memory prediction model, registered as the default
	// model. It cannot be hot-reloaded.
	Scaler *core.ProblemScaler
	// ModelPath is a single bundle file, registered as the default model
	// and reloadable in place (SIGHUP / watch loop).
	ModelPath string
	// ModelsDir is a directory of model bundles: every *.json file, named
	// by its base name, or the models listed in its manifest.json.
	ModelsDir string
	// DefaultModel optionally names the model behind the legacy
	// single-model routes, overriding the manifest's election and the
	// lexicographic fallback.
	DefaultModel string
	// Loader reads one bundle file (nil = core.LoadProblemScalerFile);
	// cmd/bfserve substitutes a fault-injecting reader for chaos testing.
	Loader func(path string) (*core.ProblemScaler, error)
	// BatchWindow enables micro-batch coalescing of single predicts: a
	// queued request waits at most this long for batch-mates before the
	// batch drains through the tree-major flat path (0 = coalescing off).
	BatchWindow time.Duration
	// BatchMaxSize caps a coalesced micro-batch (0 = 32).
	BatchMaxSize int
	// CacheSize bounds the LRU prediction cache in entries
	// (0 = default 1024, negative = caching disabled).
	CacheSize int
	// RequestTimeout caps each request's handling time (0 = 15s).
	RequestTimeout time.Duration
	// ShutdownGrace is how long Serve waits for in-flight requests after
	// the context is canceled (0 = 10s).
	ShutdownGrace time.Duration
	// MaxBatch caps rows per batched request (0 = 4096).
	MaxBatch int
	// MaxBodyBytes caps the request body (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently handled predict requests; excess
	// requests are shed immediately with 503 instead of queuing for CPU
	// (0 = default 256, negative = no shedding).
	MaxInFlight int
	// Faults optionally injects latency spikes and handler errors for
	// chaos testing; nil serves faithfully.
	Faults *faults.Injector
	// AccessLog optionally receives one structured record per completed
	// request (request id, method, path, status, duration); nil disables
	// access logging. Logging never changes response bytes.
	AccessLog *slog.Logger
	// SlowRequest is the duration at which an access-logged request is
	// escalated from Info to Warn with slow=true (0 = 1s).
	SlowRequest time.Duration
	// Extra optionally merges additional metric families into the
	// /metrics scrape — e.g. run-cache counters registered with
	// runcache.RegisterMetrics. The server renders it after its own
	// families; callers must avoid reusing bfserve_* names it emits.
	Extra *obs.Registry
}

// Server is the HTTP prediction service over a model registry.
type Server struct {
	registry *Registry
	cacheN   int
	timeout  time.Duration
	grace    time.Duration
	maxRows  int
	maxBody  int64

	// batchWindow/batchMax configure micro-batch coalescing of single
	// predicts; window 0 disables it.
	batchWindow time.Duration
	batchMax    int

	// inflight is the load-shedding semaphore for /v1/predict; nil
	// disables shedding.
	inflight chan struct{}
	// faults injects serve-side chaos (nil = off); reqID numbers predict
	// requests so injection decisions are per-request deterministic.
	faults *faults.Injector
	reqID  atomic.Uint64

	// accessLog receives one record per completed request (nil = off);
	// requests slower than slowReq escalate to Warn. nextID numbers
	// requests for the X-Request-ID header — separate from reqID so
	// enabling access logs never shifts fault-injection decisions.
	accessLog *slog.Logger
	slowReq   time.Duration
	nextID    atomic.Uint64

	// obsReg holds every bfserve_* series except the build-info gauge;
	// extra is the caller-provided registry merged into the scrape after
	// it. stageQueue/stageCoalesce/stageInference split predict latency
	// into pre-compute overhead, coalescer queueing, and model inference.
	obsReg                    *obs.Registry
	extra                     *obs.Registry
	requestDur                *obs.Histogram
	batchSize                 *obs.Histogram
	cacheHits, cacheMisses    *obs.Counter
	shed, injected, panics    *obs.Counter
	stageQueue, stageCoalesce *obs.Histogram
	stageInference            *obs.Histogram

	// testHookPredict, when set, runs before each uncached prediction;
	// tests use it to hold requests in flight across a shutdown.
	testHookPredict func()
}

// New validates the configuration, builds a server, and performs the
// initial model load.
func New(cfg Config) (*Server, error) {
	nsrc := 0
	for _, set := range []bool{cfg.Scaler != nil, cfg.ModelPath != "", cfg.ModelsDir != ""} {
		if set {
			nsrc++
		}
	}
	if nsrc != 1 {
		return nil, errors.New("serve: exactly one of Config.Scaler, Config.ModelPath, Config.ModelsDir is required")
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = 10 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.BatchMaxSize <= 0 {
		cfg.BatchMaxSize = 32
	}
	if cfg.SlowRequest <= 0 {
		cfg.SlowRequest = time.Second
	}
	cacheCap := cfg.CacheSize
	if cacheCap < 0 {
		cacheCap = 0
	}
	s := &Server{
		cacheN:      cacheCap,
		timeout:     cfg.RequestTimeout,
		grace:       cfg.ShutdownGrace,
		maxRows:     cfg.MaxBatch,
		maxBody:     cfg.MaxBodyBytes,
		batchWindow: cfg.BatchWindow,
		batchMax:    cfg.BatchMaxSize,
		faults:      cfg.Faults,
		accessLog:   cfg.AccessLog,
		slowReq:     cfg.SlowRequest,
		obsReg:      obs.NewRegistry(),
		extra:       cfg.Extra,
	}
	s.registerMetrics()
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}

	reg := newRegistry(cacheCap, s.obsReg)
	reg.override = cfg.DefaultModel
	if cfg.Loader != nil {
		reg.loader = cfg.Loader
	}
	if s.batchWindow > 0 {
		reg.onLoad = func(snap *modelSnapshot) {
			snap.coal = newCoalescer(s.batchWindow, s.batchMax, func(reqs []*coalesceReq) {
				s.drainBatch(snap, reqs)
			})
		}
	}
	s.registry = reg

	defaultName := cfg.DefaultModel
	if defaultName == "" {
		defaultName = DefaultModelName
	}
	switch {
	case cfg.Scaler != nil:
		reg.loadStatic(defaultName, cfg.Scaler)
	case cfg.ModelPath != "":
		path := cfg.ModelPath
		reg.scan = func() ([]modelSource, string, error) {
			src, err := statSource(defaultName, path)
			if err != nil {
				return nil, "", err
			}
			return []modelSource{src}, "", nil
		}
	default:
		dir := cfg.ModelsDir
		reg.scan = func() ([]modelSource, string, error) { return scanDir(dir) }
	}
	if reg.scan != nil {
		if _, errs := reg.Reload(); len(reg.view.Load().models) == 0 {
			return nil, fmt.Errorf("serve: initial model load: %w", errors.Join(errs...))
		}
	}
	return s, nil
}

// Reload rescans the model sources and swaps changed bundles in atomically.
// See Registry.Reload.
func (s *Server) Reload() (changed int, errs []error) { return s.registry.Reload() }

// Watch runs the mtime-polling hot-reload loop until ctx is done.
func (s *Server) Watch(ctx context.Context, interval time.Duration, onError func(error)) {
	s.registry.Watch(ctx, interval, onError)
}

// Models returns the registered model names, sorted, plus the default name.
func (s *Server) Models() ([]string, string) {
	snaps, def := s.registry.list()
	names := make([]string, len(snaps))
	for i, snap := range snaps {
		names[i] = snap.name
	}
	return names, def
}

// PredictRequest is the body of POST /v1/predict: exactly one of Chars
// (single vector) or Batch (many vectors).
type PredictRequest struct {
	Chars map[string]float64   `json:"chars,omitempty"`
	Batch []map[string]float64 `json:"batch,omitempty"`
}

// Prediction is one predicted vector: the response estimate and the
// intermediate per-counter model outputs the forest consumed.
type Prediction struct {
	TimeMS   float64            `json:"time_ms"`
	Counters map[string]float64 `json:"counters"`
}

// ModelInfo is the compact model identity attached to every prediction.
type ModelInfo struct {
	// Name is the registry name the model is routed by; ModelVersion
	// bumps every time a reload swaps this name to a fresh bundle.
	Name          string   `json:"name"`
	ModelVersion  int      `json:"model_version"`
	BundleVersion int      `json:"bundle_version"`
	Response      string   `json:"response"`
	CharNames     []string `json:"char_names"`
	TestR2        float64  `json:"test_r2"`
	// Engine names the forest inference engine answering predictions:
	// "flat" for the compiled contiguous-array engine, with the bundle
	// value encoding appended when the forest was loaded from a bundle's
	// flat encoding, e.g. "flat(dict16)"; an in-process fit, or an older
	// tree-form bundle, reports plain "flat".
	Engine string `json:"engine"`
}

// PredictResponse is the body answering POST /v1/predict.
type PredictResponse struct {
	Model       ModelInfo    `json:"model"`
	Predictions []Prediction `json:"predictions"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// DecodePredictRequest parses and validates a predict body: strict JSON
// (unknown fields rejected), exactly one of chars/batch, bounded batch
// size. Malformed input returns an error, never panics.
func DecodePredictRequest(r io.Reader, maxBatch int) (*PredictRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req PredictRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return nil, errors.New("trailing data after request object")
	}
	hasChars := req.Chars != nil
	hasBatch := req.Batch != nil
	switch {
	case hasChars && hasBatch:
		return nil, errors.New(`provide either "chars" or "batch", not both`)
	case !hasChars && !hasBatch:
		return nil, errors.New(`provide "chars" (single vector) or "batch" (list of vectors)`)
	case hasBatch && len(req.Batch) == 0:
		return nil, errors.New(`"batch" is empty`)
	case maxBatch > 0 && len(req.Batch) > maxBatch:
		return nil, fmt.Errorf(`"batch" has %d rows, limit is %d`, len(req.Batch), maxBatch)
	}
	for i, row := range req.Batch {
		if row == nil {
			return nil, fmt.Errorf("batch row %d is null", i)
		}
	}
	return &req, nil
}

// modelInfo builds the compact identity block for one snapshot.
func (s *Server) modelInfo(snap *modelSnapshot) ModelInfo {
	meta := snap.scaler.Meta()
	return ModelInfo{
		Name:          snap.name,
		ModelVersion:  snap.version,
		BundleVersion: meta.Version,
		Response:      meta.Response,
		CharNames:     meta.CharNames,
		TestR2:        meta.TestR2,
		Engine:        meta.Engine,
	}
}

// predictBlockRows is how many uncached rows one PredictDetailAll call
// computes. The request context is checked between blocks, so a timed-out
// batch stops within one block's work.
const predictBlockRows = 64

// predictRow is one vector of a predict: its input, its cache identity, and
// its outcome.
type predictRow struct {
	chars map[string]float64
	key   string // canonical vector key; valid when keyed
	keyed bool
	p     Prediction
	err   error
}

// predict answers every /v1/predict, single or batch, on one model
// snapshot: each row is looked up in the snapshot's cache, and the misses
// are computed together by computeRows — or, when coalescing is on and the
// request is one uncached row, queued into the coalescer, whose drain
// computes them the same way. Rows come back in order. The request context
// is observed between row blocks: once its deadline passes
// (http.TimeoutHandler sets one), the remaining rows are abandoned and the
// context error returned, so a timed-out request stops burning CPU.
//
// Prediction/cache metrics count only delivered work: a request that times
// out, is canceled, or fails on any row returns nothing to the client, so
// its hits and misses are not recorded (bfserve_predictions_total is a
// counter of answers served, not of internal model evaluations).
func (s *Server) predict(ctx context.Context, snap *modelSnapshot, batch []map[string]float64) ([]Prediction, error) {
	start := time.Now()
	rows := make([]predictRow, len(batch))
	var miss []*predictRow
	for i, chars := range batch {
		r := &rows[i]
		r.chars = chars
		// A vector missing model characteristics is unkeyable: it is
		// computed uncached, and the model reports the missing name.
		r.key, r.keyed = vectorKey(snap.scaler.CharNames, chars)
		hit := false
		if r.keyed {
			r.p, hit = snap.cache.Get(r.key)
		}
		if !hit {
			miss = append(miss, r)
		}
	}
	var err error
	if len(rows) == 1 && len(miss) == 1 && snap.coal != nil {
		err = s.coalesce(ctx, snap, miss[0])
	} else {
		if len(miss) > 0 {
			err = s.computeRows(ctx, snap, miss)
		}
		s.stageInference.Observe(time.Since(start).Seconds())
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	out := make([]Prediction, len(rows))
	for i := range rows {
		if rows[i].err != nil {
			return nil, fmt.Errorf("row %d: %w", i, rows[i].err)
		}
		out[i] = rows[i].p
	}
	misses := int64(len(miss))
	hits := int64(len(rows)) - misses
	snap.predictions.Add(hits + misses)
	s.cacheHits.Add(hits)
	s.cacheMisses.Add(misses)
	return out, nil
}

// computeRows runs the model on rows through the tree-major
// PredictDetailAll, predictBlockRows rows at a time, and caches every
// success. Rows fail independently, each in its own err. ctx is checked
// before each block; a panic in the model returns a *panicError, so neither
// a handler nor the coalescer's goroutine can crash the process.
func (s *Server) computeRows(ctx context.Context, snap *modelSnapshot, rows []*predictRow) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{v: r}
		}
	}()
	chars := make([]map[string]float64, 0, min(len(rows), predictBlockRows))
	for len(rows) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		block := rows[:min(len(rows), predictBlockRows)]
		rows = rows[len(block):]
		chars = chars[:0]
		for _, r := range block {
			if s.testHookPredict != nil {
				s.testHookPredict()
			}
			chars = append(chars, r.chars)
		}
		times, counters, errs := snap.scaler.PredictDetailAll(chars)
		for j, r := range block {
			r.p, r.err = Prediction{TimeMS: times[j], Counters: counters[j]}, errs[j]
			if r.err == nil && r.keyed {
				snap.cache.Put(r.key, r.p)
			}
		}
	}
	return nil
}

// coalesce queues one uncached row into the snapshot's micro-batch
// coalescer and waits for the batch drain to fill it in. The drained result
// is bit-identical to a solo computation — the flat batch path accumulates
// tree contributions in the same order — so coalescing is invisible in the
// response bytes.
func (s *Server) coalesce(ctx context.Context, snap *modelSnapshot, row *predictRow) error {
	req := &coalesceReq{row: row, done: make(chan struct{})}
	queued := time.Now()
	snap.coal.enqueue(req)
	select {
	case <-req.done:
		s.stageCoalesce.Observe(time.Since(queued).Seconds())
		return nil
	case <-ctx.Done():
		// The request's deadline fired while queued; the batch still
		// drains and warms the cache, but this caller stops waiting.
		return ctx.Err()
	}
}

// drainBatch computes one coalesced micro-batch through computeRows and
// completes every queued request. Rows fail independently; a panic fails
// the whole batch with a *panicError (never a crash — this runs on the
// coalescer's timer goroutine, outside any HTTP frame).
func (s *Server) drainBatch(snap *modelSnapshot, reqs []*coalesceReq) {
	rows := make([]*predictRow, len(reqs))
	for i, rq := range reqs {
		rows[i] = rq.row
	}
	computeStart := time.Now()
	if err := s.computeRows(context.Background(), snap, rows); err != nil {
		for _, r := range rows {
			r.err = err
		}
	}
	s.stageInference.Observe(time.Since(computeStart).Seconds())
	s.batchSize.Observe(float64(len(reqs)))
	for _, rq := range reqs {
		close(rq.done)
	}
}

// panicError marks a prediction that panicked; handlePredict maps it to 500.
type panicError struct{ v any }

func (e *panicError) Error() string { return fmt.Sprintf("prediction panicked: %v", e.v) }

// handlePredict serves POST /v1/predict (default model) and
// POST /v1/models/{name}/predict (routed by model name). The snapshot is
// resolved once, up front: a hot reload mid-request swaps the registry, but
// this request completes on the model it started with.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	name := r.PathValue("name")
	snap, ok := s.registry.resolve(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown model %q", name)})
		return
	}
	// Load shedding: if MaxInFlight requests are already being handled,
	// answer 503 immediately instead of queuing for CPU — an overloaded
	// predictor should degrade crisply, not stall everyone.
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.shed.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server overloaded, retry later"})
			return
		}
	}
	if s.faults != nil {
		id := s.reqID.Add(1)
		if d := s.faults.ServeDelay(id); d > 0 {
			s.injected.Inc()
			// Sleep is bounded by the request context so an injected
			// spike cannot outlive the request's deadline.
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
			}
		}
		if s.faults.ServeError(id) {
			s.injected.Inc()
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "injected fault: simulated handler failure"})
			return
		}
	}
	req, err := DecodePredictRequest(http.MaxBytesReader(w, r.Body, s.maxBody), s.maxRows)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// Everything up to here — routing, shedding, chaos, decoding — is the
	// request's queue stage; compute starts now.
	s.stageQueue.Observe(time.Since(start).Seconds())
	rows := req.Batch
	if req.Chars != nil {
		rows = []map[string]float64{req.Chars}
	}
	preds, err := s.predict(r.Context(), snap, rows)
	if err != nil {
		var pe *panicError
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// http.TimeoutHandler has usually answered 503 already; the
			// code here is for callers driving the handler directly.
			code = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			code = http.StatusServiceUnavailable
		case errors.As(err, &pe):
			s.panics.Inc()
			code = http.StatusInternalServerError
		}
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{Model: s.modelInfo(snap), Predictions: preds})
}

// ImportanceEntry is one row of the model's importance table.
type ImportanceEntry struct {
	Name          string  `json:"name"`
	IncMSE        float64 `json:"inc_mse"`
	PctIncMSE     float64 `json:"pct_inc_mse"`
	IncNodePurity float64 `json:"inc_node_purity"`
}

// CounterModelInfo summarizes one per-counter model.
type CounterModelInfo struct {
	Counter          string  `json:"counter"`
	Kind             string  `json:"kind"`
	TrainR2          float64 `json:"train_r2"`
	ResidualDeviance float64 `json:"residual_deviance"`
}

// ModelReport is the body answering GET /v1/model.
type ModelReport struct {
	Model         ModelInfo          `json:"model"`
	Predictors    []string           `json:"predictors"`
	NumTrees      int                `json:"num_trees"`
	OOBMSE        float64            `json:"oob_mse"`
	VarExplained  float64            `json:"var_explained"`
	TestMSE       float64            `json:"test_mse"`
	TestR2        float64            `json:"test_r2"`
	AvgCounterR2  float64            `json:"avg_counter_r2"`
	Importance    []ImportanceEntry  `json:"importance"`
	CounterModels []CounterModelInfo `json:"counter_models"`
}

// handleModel serves GET /v1/model (default model) and
// GET /v1/models/{name} (routed by model name).
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	name := r.PathValue("name")
	snap, ok := s.registry.resolve(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown model %q", name)})
		return
	}
	scaler := snap.scaler
	red := scaler.Reduced
	rep := ModelReport{
		Model:        s.modelInfo(snap),
		Predictors:   red.Predictors,
		NumTrees:     red.Forest.NumTrees(),
		OOBMSE:       red.OOBMSE,
		VarExplained: red.VarExplained,
		TestMSE:      red.TestMSE,
		TestR2:       red.TestR2,
		AvgCounterR2: scaler.AverageCounterR2(),
	}
	for _, imp := range red.Importance {
		rep.Importance = append(rep.Importance, ImportanceEntry(imp))
	}
	for _, name := range scaler.CounterNames() {
		cm := scaler.Models[name]
		rep.CounterModels = append(rep.CounterModels, CounterModelInfo{
			Counter:          cm.Counter,
			Kind:             cm.Kind,
			TrainR2:          cm.TrainR2,
			ResidualDeviance: cm.ResidualDeviance,
		})
	}
	writeJSON(w, http.StatusOK, rep)
}

// ModelSummary is one row of GET /v1/models: registry identity plus the
// bundle's validation stats and live serving counters.
type ModelSummary struct {
	Name          string  `json:"name"`
	Version       int     `json:"version"`
	Default       bool    `json:"default"`
	Path          string  `json:"path,omitempty"`
	LoadedUnix    int64   `json:"loaded_unix"`
	Engine        string  `json:"engine"`
	Response      string  `json:"response"`
	NumTrees      int     `json:"num_trees"`
	TestR2        float64 `json:"test_r2"`
	CounterModels int     `json:"counter_models"`
	Degraded      bool    `json:"degraded"`
	CacheEntries  int     `json:"cache_entries"`
	Predictions   int64   `json:"predictions_total"`
}

// ModelsResponse is the body answering GET /v1/models.
type ModelsResponse struct {
	Default string         `json:"default"`
	Models  []ModelSummary `json:"models"`
}

// handleModels serves GET /v1/models: every registered model with its
// name, version, engine, and stats.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	snaps, def := s.registry.list()
	resp := ModelsResponse{Default: def, Models: make([]ModelSummary, 0, len(snaps))}
	for _, snap := range snaps {
		meta := snap.scaler.Meta()
		resp.Models = append(resp.Models, ModelSummary{
			Name:          snap.name,
			Version:       snap.version,
			Default:       snap.name == def,
			Path:          snap.path,
			LoadedUnix:    snap.loaded.Unix(),
			Engine:        meta.Engine,
			Response:      meta.Response,
			NumTrees:      meta.NumTrees,
			TestR2:        meta.TestR2,
			CounterModels: meta.Counters,
			Degraded:      meta.Degraded,
			CacheEntries:  snap.cache.Len(),
			Predictions:   snap.predictions.Value(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves GET /metrics: the server's registry, the
// build-info gauge, and any extra caller-provided registry, rendered as one
// Prometheus text scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.obsReg.WritePrometheus(w)
	writeBuildInfo(w, s.registry.defaultSnapshot().scaler.Meta().Engine)
	if s.extra != nil {
		s.extra.WritePrometheus(w)
	}
}

// batchBuckets are the upper bounds of the coalesced micro-batch size
// histogram.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// registerMetrics registers the server's series on obsReg. Every route
// gets its code="200" request counter up front, so a rate() over any route
// is well-defined from the first scrape; per-model prediction counters are
// registered as models load.
func (s *Server) registerMetrics() {
	r := s.obsReg
	for _, route := range serveRoutes {
		s.requestCounter(route, http.StatusOK)
	}
	s.requestDur = r.Histogram("bfserve_request_duration_seconds", "Request latency.", obs.DefaultLatencyBuckets)
	s.batchSize = r.Histogram("bfserve_batch_size", "Coalesced micro-batch sizes at drain.", batchBuckets)
	r.GaugeFunc("bfserve_models", "Models currently registered.", func() float64 {
		return float64(len(s.registry.view.Load().models))
	})
	s.cacheHits = r.Counter("bfserve_cache_hits_total", "Prediction cache hits.")
	s.cacheMisses = r.Counter("bfserve_cache_misses_total", "Prediction cache misses.")
	s.shed = r.Counter("bfserve_shed_total", "Requests rejected by load shedding.")
	s.injected = r.Counter("bfserve_injected_faults_total", "Faults injected by the chaos layer.")
	s.panics = r.Counter("bfserve_panics_total", "Panics recovered into 500 answers.")
	r.GaugeFunc("bfserve_cache_hit_rate", "Fraction of predictions served from cache.", func() float64 {
		hits, misses := s.cacheHits.Value(), s.cacheMisses.Value()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
	r.GaugeFunc("bfserve_cache_entries", "Current prediction cache entries.", func() float64 {
		n := 0
		for _, snap := range s.registry.view.Load().models {
			n += snap.cache.Len()
		}
		return float64(n)
	})
	r.GaugeFunc("bfserve_cache_capacity", "Prediction cache capacity (0 = disabled).", func() float64 {
		return float64(s.cacheN * len(s.registry.view.Load().models))
	})
	const stageHelp = "Predict latency split by stage: queue (pre-compute handler overhead), coalesce_wait (micro-batch queueing), inference (model compute)."
	stage := func(name string) *obs.Histogram {
		return r.Histogram("bfserve_stage_duration_seconds", stageHelp, obs.DefaultLatencyBuckets,
			obs.Label{Name: "stage", Value: name})
	}
	s.stageQueue, s.stageCoalesce, s.stageInference = stage("queue"), stage("coalesce_wait"), stage("inference")
}

// requestCounter returns the bfserve_requests_total series for one route
// and status code, registering it on first use.
func (s *Server) requestCounter(path string, code int) *obs.Counter {
	return s.obsReg.Counter("bfserve_requests_total", "Completed HTTP requests by path and status code.",
		obs.Label{Name: "path", Value: path}, obs.Label{Name: "code", Value: strconv.Itoa(code)})
}

// writeBuildInfo emits the constant-1 identity gauge: the binary's version
// and VCS revision plus the default model's inference engine. The engine
// label is resolved at scrape time so a hot reload that swaps engines (e.g.
// flat → flat(dict16)) shows up on the next scrape.
func writeBuildInfo(w io.Writer, engine string) {
	bi := buildinfo.Get("bfserve")
	fmt.Fprintln(w, "# HELP bfserve_build_info Build and serving identity; the value is always 1.")
	fmt.Fprintln(w, "# TYPE bfserve_build_info gauge")
	esc := obs.EscapeLabelValue
	fmt.Fprintf(w, "bfserve_build_info{version=\"%s\",revision=\"%s\",go=\"%s\",engine=\"%s\"} 1\n",
		esc(bi.Version), esc(bi.ShortRevision()), esc(bi.GoVersion), esc(engine))
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request identification, counting, latency
// recording, and (when configured) structured access logging. Every response
// carries an X-Request-ID header — the client's own, when it sent one, else
// a server-assigned sequence number — correlating responses with log lines.
// Only headers change: response bodies stay byte-identical whether or not
// logging is enabled.
func (s *Server) instrument(path string, h http.Handler) http.Handler {
	served := s.requestCounter(path, http.StatusOK)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = "bfserve-" + strconv.FormatUint(s.nextID.Add(1), 10)
		}
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		d := time.Since(start)
		if rec.code == http.StatusOK {
			served.Inc()
		} else {
			s.requestCounter(path, rec.code).Inc()
		}
		s.requestDur.Observe(d.Seconds())
		if s.accessLog != nil {
			slow := d >= s.slowReq
			level := slog.LevelInfo
			if slow {
				level = slog.LevelWarn
			}
			s.accessLog.LogAttrs(r.Context(), level, "request",
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.code),
				slog.Duration("duration", d),
				slog.Bool("slow", slow),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}

// recovered wraps a handler with a recover-to-500 backstop: a panic
// anywhere in request handling (http.TimeoutHandler re-raises its inner
// goroutine's panics in this frame) answers a JSON 500 instead of tearing
// down the connection — one bad predict can never take the server down.
func (s *Server) recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				writeJSON(w, http.StatusInternalServerError,
					errorResponse{Error: fmt.Sprintf("internal error: %v", p)})
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// serveRoutes are the instrumented route labels, in registration order.
var serveRoutes = [...]string{
	"/v1/predict", "/v1/model", "/v1/models/predict", "/v1/models/model",
	"/v1/models", "/healthz", "/metrics",
}

// Handler returns the service's HTTP handler: the prediction endpoints are
// instrumented, panic-recovered, and bounded by the per-request timeout.
// The legacy single-model routes (/v1/predict, /v1/model) answer from the
// registry's default model; /v1/models/{name}/... routes by model name.
func (s *Server) Handler() http.Handler {
	timeoutBody := `{"error":"request timed out"}`
	mux := http.NewServeMux()
	predict := s.recovered(http.TimeoutHandler(http.HandlerFunc(s.handlePredict), s.timeout, timeoutBody))
	model := s.recovered(http.TimeoutHandler(http.HandlerFunc(s.handleModel), s.timeout, timeoutBody))
	mux.Handle("/v1/predict", s.instrument("/v1/predict", predict))
	mux.Handle("/v1/model", s.instrument("/v1/model", model))
	mux.Handle("/v1/models/{name}/predict", s.instrument("/v1/models/predict", predict))
	mux.Handle("/v1/models/{name}", s.instrument("/v1/models/model", model))
	mux.Handle("/v1/models", s.instrument("/v1/models", s.recovered(
		http.TimeoutHandler(http.HandlerFunc(s.handleModels), s.timeout, timeoutBody))))
	mux.Handle("/healthz", s.instrument("/healthz", s.recovered(http.HandlerFunc(s.handleHealthz))))
	mux.Handle("/metrics", s.instrument("/metrics", s.recovered(http.HandlerFunc(s.handleMetrics))))
	return mux
}

// Serve runs the service on the listener until ctx is canceled, then shuts
// down gracefully: new connections are refused while in-flight requests get
// ShutdownGrace to complete.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), s.grace)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return nil
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
