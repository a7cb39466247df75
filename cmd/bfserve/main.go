// bfserve serves predictions from saved BlackForest model bundles: the
// train-once / predict-cheaply split. Train and save with
//
//	blackforest -kernel matmul -save model.json
//
// then serve one bundle:
//
//	bfserve -model model.json -addr :8391
//	curl -s localhost:8391/v1/predict -d '{"chars":{"size":1536}}'
//
// or a whole directory of bundles, routed by model name:
//
//	bfserve -models-dir models/ -watch 2s -batch-window 1ms
//	curl -s localhost:8391/v1/models/matmul/predict -d '{"chars":{"size":1536}}'
//	curl -s localhost:8391/v1/models
//
// The directory may carry a manifest.json ({"default":"matmul","models":
// [{"name":"matmul","path":"matmul.json"}]}); without one, every *.json
// bundle is registered under its base name. Models hot-reload on SIGHUP or,
// with -watch, whenever a bundle's mtime changes — in-flight requests
// finish on the model they started with, and a bundle that fails to load
// keeps its previous version serving.
//
// Endpoints: POST /v1/predict and /v1/models/{name}/predict (single or
// batch), GET /v1/models, /v1/models/{name}, /v1/model, /healthz, /metrics
// (Prometheus text). The process shuts down gracefully on SIGINT/SIGTERM,
// letting in-flight requests complete.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blackforest/internal/buildinfo"
	"blackforest/internal/core"
	"blackforest/internal/faults"
	"blackforest/internal/serve"
)

func main() {
	model := flag.String("model", "", "single model bundle written by blackforest -save")
	modelsDir := flag.String("models-dir", "", "directory of model bundles (all *.json, or manifest.json), routed by name")
	defaultModel := flag.String("default-model", "", "model answering the legacy /v1/predict route (default: manifest election or first name)")
	watch := flag.Duration("watch", 0, "poll bundles for changes at this interval and hot-reload (0 = SIGHUP only)")
	addr := flag.String("addr", ":8391", "listen address")
	cache := flag.Int("cache", 1024, "per-model LRU prediction cache entries (negative disables)")
	timeout := flag.Duration("timeout", 15*time.Second, "per-request timeout")
	batchWindow := flag.Duration("batch-window", 0, "coalesce single predicts into micro-batches, waiting at most this long (0 = off)")
	batchMax := flag.Int("batch-max", 32, "max coalesced micro-batch size")
	maxInFlight := flag.Int("max-inflight", 256, "concurrent predict requests before load shedding with 503 (negative disables shedding)")
	faultSpec := flag.String("faults", "", `fault injection spec, e.g. "seed=42,error=0.05,latency=0.1,spike=50ms,corrupt=0.01" (chaos testing; empty = off)`)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = off)")
	accessLog := flag.Bool("access-log", true, "write one structured (JSON) access-log line per request to stderr")
	slowReq := flag.Duration("slow-request", time.Second, "access-log requests at least this slow at WARN with slow=true")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		buildinfo.Get("bfserve").Print(os.Stdout)
		return
	}
	if (*model == "") == (*modelsDir == "") {
		fmt.Fprintln(os.Stderr, "bfserve: exactly one of -model or -models-dir is required")
		flag.Usage()
		os.Exit(2)
	}
	faultCfg, err := faults.Parse(*faultSpec)
	if err != nil {
		fatal(err)
	}
	injector := faults.New(faultCfg)

	// Access logs are structured JSON on stderr, one line per request;
	// stdout stays human-oriented status output.
	var logger *slog.Logger
	if *accessLog {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	srv, err := serve.New(serve.Config{
		ModelPath:      *model,
		ModelsDir:      *modelsDir,
		DefaultModel:   *defaultModel,
		Loader:         func(path string) (*core.ProblemScaler, error) { return loadScaler(path, injector) },
		CacheSize:      *cache,
		RequestTimeout: *timeout,
		BatchWindow:    *batchWindow,
		BatchMaxSize:   *batchMax,
		MaxInFlight:    *maxInFlight,
		Faults:         injector,
		AccessLog:      logger,
		SlowRequest:    *slowReq,
	})
	if err != nil {
		fatal(err)
	}
	names, def := srv.Models()
	fmt.Printf("registered %d model(s) %v, default %q\n", len(names), names, def)
	if injector != nil {
		fmt.Printf("chaos: fault injection active (%s)\n", faultCfg)
	}
	if *batchWindow > 0 {
		fmt.Printf("coalescing single predicts: window %v, max batch %d\n", *batchWindow, *batchMax)
	}

	// Profiling endpoints live on their own listener and mux, so they are
	// never exposed on the serving address and the serving mux stays free
	// of debug routes.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "bfserve: pprof:", err)
			}
		}()
		fmt.Printf("pprof on %s (GET /debug/pprof/)\n", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP hot-reloads the registry; -watch adds an mtime poll loop.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			logReload(srv.Reload())
		}
	}()
	if *watch > 0 {
		go srv.Watch(ctx, *watch, func(err error) {
			fmt.Fprintln(os.Stderr, "bfserve: reload:", err)
		})
		fmt.Printf("watching bundles for changes every %v\n", *watch)
	}

	fmt.Printf("serving on %s (POST /v1/predict, /v1/models/{name}/predict, GET /v1/models, /v1/model, /healthz, /metrics)\n", *addr)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		fatal(err)
	}
	fmt.Println("bfserve: shut down cleanly")
}

func logReload(changed int, errs []error) {
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "bfserve: reload:", err)
	}
	if changed > 0 {
		fmt.Printf("bfserve: reloaded %d model(s)\n", changed)
	}
}

// loadScaler reads one bundle, threading the injector's corrupt/truncate
// profile into the read so bundle-load failure handling can be exercised
// end to end (a nil injector reads the file verbatim).
func loadScaler(path string, injector *faults.Injector) (*core.ProblemScaler, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ps, err := core.LoadProblemScaler(injector.WrapReader(f, faults.HashString(path)))
	if err != nil {
		return nil, err
	}
	fmt.Printf("loaded %s: response %s, %d trees over %v (test R² %.3f, %d counter models, engine %s)\n",
		path, ps.Response(), ps.Reduced.Forest.NumTrees(),
		ps.Reduced.Predictors, ps.Reduced.TestR2, len(ps.Models), ps.Reduced.Forest.Engine())
	if ps.Degradation != nil {
		fmt.Printf("warning: model was trained on a %s\n", ps.Degradation)
	}
	return ps, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfserve:", err)
	os.Exit(1)
}
