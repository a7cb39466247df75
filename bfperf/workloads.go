package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"blackforest/internal/core"
	"blackforest/internal/experiments"
	"blackforest/internal/profiler"
)

// endToEnd are the metrics a run without tracing reports, on every
// workload. An analysis workload's operation is one pass of the study set;
// a serving workload's is one predict request.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_ops_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// simulatedKernels are the (kernel, device) pairs a pass simulates.
var simulatedKernels = []string{
	"reduce1.GTX580", "reduce2.GTX580", "reduce6.GTX580",
	"matmul.GTX580", "needle.GTX580", "matmul.K20m", "needle.K20m",
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"gpusim.simulate_s", "s"},
		{"gpusim.cycles", "count"},
		{"gpusim.host_ns_per_cycle", "ns"},
		{"profiler.runs", "count"},
		{"profiler.attempts", "count"},
		{"profiler.overhead_s", "s"},
		{"profiler.slot_idle_frac", "ratio"},
		{"profiler.collect_s", "s"},
		{"runcache.lookups", "count"},
		{"runcache.hit_ratio", "ratio"},
		{"runcache.mem_hits", "count"},
		{"runcache.disk_hits", "count"},
		{"runcache.misses", "count"},
		{"runcache.coalesced", "count"},
		{"runcache.writes", "count"},
		{"runcache.bad_entries", "count"},
		{"runcache.read_s", "s"},
		{"core.analyze_s", "s"},
		{"core.bottlenecks_s", "s"},
		{"core.pca_s", "s"},
		{"core.scaler_s", "s"},
		{"core.reduced_fit_s", "s"},
		{"core.counter_fit_s", "s"},
		{"core.counter_models", "count"},
		{"core.evaluate_s", "s"},
		{"core.hwscale_s", "s"},
		{"core.bundle_save_s", "s"},
		{"core.bundle_load_s", "s"},
		{"core.bundle_bytes", "bytes"},
		{"core.pred_medape_pct", "%"},
		{"serve.request_us", "us"},
		{"serve.stage_queue_us", "us"},
		{"serve.stage_coalesce_wait_us", "us"},
		{"serve.stage_inference_us", "us"},
		{"serve.unattributed_us", "us"},
		{"serve.cache_lookups", "count"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.cache_hits", "count"},
		{"serve.cache_misses", "count"},
		{"serve.shed", "count"},
		{"serve.decode_us", "us"},
		{"core.counter_predict_us", "us"},
		{"forest.walk_us", "us"},
		{"core.predict_detail_us", "us"},
		{"serve.encode_us", "us"},
		{"net.overhead_us", "us"},
		{"client.open_loop_p50_ms", "ms"},
		{"client.open_loop_p99_ms", "ms"},
		{"client.send_lag_p99_ms", "ms"},
		{"runtime.alloc_mb_per_pass", "MB"},
		{"runtime.alloc_kb_per_req", "KB"},
		{"bench.unattributed_s", "s"},
		{"bench.trace_overhead_s", "s"},
	}
	for _, k := range simulatedKernels {
		out = append(out, struct{ name, unit string }{"gpusim.simulate_s." + k, "s"})
	}
	return out
}()

// newReport starts a report with every metric of the run's kind at 0.
func newReport(c config) *report {
	r := &report{metrics: map[string]metric{}}
	list := endToEnd
	if c.trace {
		list = perLayer
	}
	for _, m := range list {
		r.set(m.name, 0, m.unit)
	}
	return r
}

// setMedians reports, for each name, the median of its per-pass samples.
func (r *report) setMedians(samples map[string][]float64) {
	for name, xs := range samples {
		r.set(name, median(xs), r.metrics[name].Unit)
	}
}

// runAnalyze measures passes of the study set for c.seconds, each against
// a fresh empty cache directory (cold) or against the directory the
// set-up filled, reopened so its memory layer starts empty (warm). Set-up
// is one cold pass into a fresh directory, done setupReps times; every
// pass must reproduce the set-up's output digest.
func runAnalyze(c config, warm bool) (*report, error) {
	rep := newReport(c)
	an, err := newAnalysis(c.seed, c.slots)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	var ref *passResult
	var warmDir string
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(c.work, fmt.Sprintf("setup-%d", i))
		t := startTimer()
		res, err := an.passIn(dir, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up pass: %w", err)
		}
		setupS = append(setupS, t.seconds())
		if ref != nil && res.digest != ref.digest {
			return nil, fmt.Errorf("set-up passes disagree: digest %s then %s", ref.digest, res.digest)
		}
		ref = res
		if warmDir != "" {
			os.RemoveAll(warmDir)
		}
		warmDir = dir
	}
	rep.note("outputs digest %s (held-out medape %.4g%% over %d rows)", ref.digest[:16], median(ref.apes), len(ref.apes))

	var rec *recorder
	if c.trace {
		rec = newRecorder()
	}
	var wallS, cpuS, tracedS, untracedS []float64
	var tps []tracedPass
	deadline := time.Now().Add(c.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		dir := warmDir
		if !warm {
			dir = filepath.Join(c.work, fmt.Sprintf("cold-%d", n))
		}
		// A traced run alternates untraced and traced passes, so their
		// difference is the tracing overhead.
		var prec *recorder
		if c.trace && n%2 == 1 {
			prec = rec
		}
		sides := 0
		if prec != nil {
			sides = len(prec.sides)
		}
		alloc0 := 0.0
		if prec != nil {
			alloc0 = allocMB()
		}
		cpu0, t := cpuSeconds(), startTimer()
		res, err := an.passIn(dir, prec)
		wall, cpu := t.seconds(), cpuSeconds()-cpu0
		rep.attempted++
		switch {
		case err != nil:
			rep.fail(1, err)
		case res.digest != ref.digest:
			rep.fail(1, fmt.Errorf("pass %d digest %s, set-up %s", n, res.digest, ref.digest))
		}
		if err == nil {
			wallS, cpuS = append(wallS, wall), append(cpuS, cpu)
			if prec == nil {
				untracedS = append(untracedS, wall)
			} else {
				tracedS = append(tracedS, wall)
				tp, err := an.measureTraced(res, prec, sides)
				if err != nil {
					return nil, err
				}
				tp.allocMB = allocMB() - alloc0
				tps = append(tps, tp)
			}
		}
		if !warm {
			os.RemoveAll(dir)
		}
	}
	rep.note("%d passes, median wall %.4g s, slowest %.4g s", len(wallS), median(wallS), maxOf(wallS))
	if !c.trace {
		rep.set("setup_s", median(setupS), "s")
		rep.set("p50_ms", 1e3*median(wallS), "ms")
		rep.set("cpu_ms_per_op", 1e3*median(cpuS), "ms")
		rep.set("max_ops_per_s", 1/median(wallS), "1/s")
		return rep, nil
	}
	layer := map[string][]float64{}
	add := func(name string, v float64) { layer[name] = append(layer[name], v) }
	spans := rec.tree()
	for k, root := range named(spans, "pass") { // pass spans end, and so record, in pass order
		if err := an.addLayers(rec.layers(spans, root), tps[k], add); err != nil {
			return nil, err
		}
	}
	rep.setMedians(layer)
	rep.set("bench.trace_overhead_s", median(tracedS)-median(untracedS), "s")
	rep.set("core.pred_medape_pct", median(ref.apes), "%")
	trace := filepath.Join(c.out, fmt.Sprintf("trace-%s-%d.json", c.workload, c.seed))
	if err := rec.writeChromeTrace(trace, c.slots); err != nil {
		return nil, err
	}
	rep.note("chrome trace of %d traced passes: %s", len(tracedS), trace)
	return rep, nil
}

// passIn runs one pass against a run cache opened on dir.
func (a *analysis) passIn(dir string, rec *recorder) (*passResult, error) {
	sp := rec.begin("pass")
	defer sp.End()
	cache, err := profiler.NewRunCache(dir, 0)
	if err != nil {
		return nil, err
	}
	res, err := a.pass(cache, rec)
	if err != nil {
		return nil, err
	}
	res.stats = cache.Stats()
	res.cache = cache
	return res, nil
}

// tracedPass is what a traced pass measured besides its spans.
type tracedPass struct {
	res                *passResult
	cycles             float64
	reducedS, counterS float64
	models             int
	allocMB            float64
}

// measureTraced takes a traced pass's measurements that need its live run
// cache: the simulated cycles of its collections, and the timed replay of
// NewProblemScaler's two halves.
func (a *analysis) measureTraced(res *passResult, rec *recorder, firstSide int) (tracedPass, error) {
	tp := tracedPass{res: res}
	var err error
	if tp.cycles, err = simulatedCycles(res, rec, firstSide); err != nil {
		return tp, err
	}
	for _, fs := range res.scalers {
		r, c, m, err := a.replayScaler(fs)
		if err != nil {
			return tp, err
		}
		tp.reducedS, tp.counterS, tp.models = tp.reducedS+r, tp.counterS+c, tp.models+m
	}
	return tp, nil
}

// addLayers adds one traced pass's per-layer samples: self times from its
// span tree, the run cache's counters, and what measureTraced took.
func (a *analysis) addLayers(l passLayers, tp tracedPass, add func(string, float64)) error {
	if d := l.wallS - l.unattributedS - l.childrenS; d > 1e-6 || d < -1e-6 {
		return fmt.Errorf("pass wall %.9f s does not reconcile: unattributed %.9f s + calls %.9f s", l.wallS, l.unattributedS, l.childrenS)
	}
	add("bench.unattributed_s", l.unattributedS)
	add("gpusim.simulate_s", l.simulateS)
	for _, k := range simulatedKernels {
		add("gpusim.simulate_s."+k, l.simulateByKernel[k])
	}
	add("gpusim.cycles", tp.cycles)
	if tp.cycles > 0 {
		add("gpusim.host_ns_per_cycle", l.simulateS*1e9/tp.cycles)
	}
	add("profiler.runs", float64(l.runs))
	add("profiler.attempts", float64(l.attempts))
	add("profiler.overhead_s", l.overheadS)
	add("profiler.collect_s", l.collectS)
	if l.collectS > 0 {
		add("profiler.slot_idle_frac", 1-l.runSpanS/(float64(a.gate.Size())*l.collectS))
	}
	st := tp.res.stats
	lookups := st.Hits() + st.Misses
	add("runcache.lookups", float64(lookups))
	if lookups > 0 {
		add("runcache.hit_ratio", st.HitRate())
	}
	add("runcache.mem_hits", float64(st.MemHits))
	add("runcache.disk_hits", float64(st.DiskHits))
	add("runcache.misses", float64(st.Misses))
	add("runcache.coalesced", float64(st.Coalesced))
	add("runcache.writes", float64(st.Writes))
	add("runcache.bad_entries", float64(st.BadEntries))
	if st.Misses == 0 {
		add("runcache.read_s", l.collectS) // every collection only read the cache
	}
	for _, call := range []string{"analyze", "bottlenecks", "pca", "scaler", "evaluate", "hwscale", "bundle_save", "bundle_load"} {
		add("core."+call+"_s", l.core[call])
	}
	add("core.reduced_fit_s", tp.reducedS)
	add("core.counter_fit_s", tp.counterS)
	add("core.counter_models", float64(tp.models))
	add("core.bundle_bytes", float64(tp.res.bundleBytes))
	add("runtime.alloc_mb_per_pass", tp.allocMB)
	return nil
}

// simulatedCycles sums Profile.Cycles over the runs the pass simulated. A
// collection either simulated every run (each miss records one simulate
// span) or none (all cache hits); the profiles come from the pass's cache.
func simulatedCycles(res *passResult, rec *recorder, firstSide int) (float64, error) {
	var cycles float64
	for _, sd := range rec.sides[firstSide:] {
		sims := 0
		for _, ev := range sd.tracer.Events() {
			if ev.Phase == 'X' && ev.Name == "simulate" {
				sims++
			}
		}
		if sims == 0 {
			continue
		}
		if sims != len(sd.runs) {
			return 0, fmt.Errorf("%s collection simulated %d of %d runs", sd.device, sims, len(sd.runs))
		}
		p := profiler.New(sd.dev, profiler.Options{MaxSimBlocks: quickSimBlocks, Seed: sd.seed})
		for _, w := range sd.runs {
			prof, ok := res.cache.Get(p.RunKey(w))
			if !ok {
				return 0, fmt.Errorf("simulated %s run missing from the cache", w.Name())
			}
			cycles += prof.Cycles
		}
	}
	return cycles, nil
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// runServe trains the needle bundle, serves it, and drives the server. After
// an open-loop warm-up, an untraced run sends closed-loop batches that keep
// every connection busy and measure what the server sustains; a traced run
// offers open-loop traffic at the nominal rate instead.
// Set-up — collecting the needle sweep into a fresh cache, fitting and
// saving the bundle, starting the server — is done setupReps times; the
// last server is the one measured.
func runServe(c config, hot bool) (*report, error) {
	rep := newReport(c)
	an, err := newAnalysis(c.seed, c.slots)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	var srv *liveServer
	var bundle string
	var fs *fittedScaler
	layer := map[string][]float64{}
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(c.work, fmt.Sprintf("serve-%d", i))
		rec := newRecorder()
		t := startTimer()
		sp := rec.begin("setup")
		cache, err := profiler.NewRunCache(dir, 0)
		if err != nil {
			return nil, err
		}
		if fs, err = an.problemScaling(experiments.NWSweep(an.opts), core.MARSModel, cache, rec); err != nil {
			return nil, err
		}
		bundle = filepath.Join(dir, "needle.json")
		if err := os.WriteFile(bundle, fs.bundle, 0o644); err != nil {
			return nil, err
		}
		if srv, err = startServer(bundle, c.slots); err != nil {
			return nil, err
		}
		sp.End()
		setupS = append(setupS, t.seconds())
		spans := rec.tree()
		l := rec.layers(spans, named(spans, "setup")[0])
		layer["core.bundle_save_s"] = append(layer["core.bundle_save_s"], l.core["bundle_save"])
		layer["core.bundle_load_s"] = append(layer["core.bundle_load_s"], l.core["bundle_load"])
	}
	defer srv.stop()
	ps, err := core.LoadProblemScalerFile(bundle)
	if err != nil {
		return nil, err
	}
	var apes []float64
	for i, p := range fs.eval.Predicted {
		apes = append(apes, ape(p, fs.eval.Actual[i]))
	}
	tr := uniqueTraffic(ps, c.seed)
	chk := &checker{ps: ps}
	if hot {
		tr = hotTraffic(ps, c.seed)
		chk.memo = map[string]expectation{}
	}
	g := &generator{srv: srv, traffic: tr, conns: c.slots}
	// measure summarizes a phase and checks its answers.
	measure := func(p *phaseRun, windows int) phaseStats {
		st := p.stats(windows)
		failed, err := chk.check(p, tr)
		rep.attempted += st.n
		rep.fail(failed, err)
		st.failed = failed
		return st
	}
	measure(g.run(nominalRPS, time.Duration(warmupS*float64(time.Second))), 1)
	rep.note("served bundle: %d bytes, held-out medape %.4g%% over %d rows", len(fs.bundle), median(apes), len(apes))
	if c.trace {
		if err := traceServe(rep, srv, g, measure, ps, chk.model, c.seconds/2); err != nil {
			return nil, err
		}
		rep.set("core.bundle_bytes", float64(len(fs.bundle)), "bytes")
		rep.set("core.pred_medape_pct", median(apes), "%")
		rep.setMedians(layer)
		return rep, nil
	}

	// Closed-loop batches until the run's time is up. Each batch is checked
	// before the next is sent; every metric is the median over batches.
	var rates, p50s, cpus []float64
	end := time.Now().Add(c.seconds)
	for n := 0; n == 0 || time.Now().Before(end); n++ {
		p := g.saturate(batchRequests)
		st := measure(p, 1)
		if st.failed == 0 {
			rates, p50s = append(rates, st.goodputRPS), append(p50s, st.p50MS)
			cpus = append(cpus, p.cpuS*1e3/float64(st.n))
		}
	}
	rep.note("%d closed-loop batches of %d requests over %d connections: %.1f req/s (range %.1f-%.1f), p50 %.4g ms",
		len(rates), batchRequests, c.slots, median(rates), minOf(rates), maxOf(rates), median(p50s))
	rep.set("setup_s", median(setupS), "s")
	rep.set("p50_ms", median(p50s), "ms")
	rep.set("cpu_ms_per_op", median(cpus), "ms")
	rep.set("max_ops_per_s", median(rates), "1/s")
	return rep, nil
}
