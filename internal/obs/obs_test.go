package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// fakeClock returns a clock that advances by step nanoseconds per call.
func fakeClock(step int64) func() int64 {
	var now int64
	return func() int64 {
		v := now
		now += step
		return v
	}
}

func TestNilTracerIsFullyDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	sp := tr.Begin(0, "work")
	if sp != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	// All of these must be safe no-ops.
	sp.Arg("k", "v")
	sp.SetLane(3)
	sp.End()
	tr.Instant(0, "marker")
	tr.SetLaneName(0, "w0")
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("exporting a nil tracer should error")
	}
}

func TestNilSpanBeginAllocatesNothing(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Begin(1, "hot")
		sp.Arg("a", "b")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %v per span", allocs)
	}
}

func TestTracerRecordsSpansAndInstants(t *testing.T) {
	tr := NewTracer(fakeClock(1000))
	tr.SetLaneName(0, "worker-0")
	sp := tr.Begin(0, "run").Arg("workload", "matmul")
	tr.Instant(0, "cache-miss", Arg{"key", "abc"})
	sp.End()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Recording order: the instant ends before the span does.
	if evs[0].Name != "cache-miss" || evs[0].Phase != 'i' {
		t.Fatalf("event 0 = %+v, want instant cache-miss", evs[0])
	}
	if evs[1].Name != "run" || evs[1].Phase != 'X' {
		t.Fatalf("event 1 = %+v, want complete run", evs[1])
	}
	// clock: Begin=0, Instant=1000, End=2000 → dur 2000.
	if evs[1].StartNS != 0 || evs[1].DurNS != 2000 {
		t.Fatalf("run span timing = start %d dur %d, want 0/2000", evs[1].StartNS, evs[1].DurNS)
	}
	if len(evs[1].Args) != 1 || evs[1].Args[0] != (Arg{"workload", "matmul"}) {
		t.Fatalf("run span args = %+v", evs[1].Args)
	}
}

func TestSpanSetLaneMovesLane(t *testing.T) {
	tr := NewTracer(fakeClock(1))
	sp := tr.Begin(-1, "gated")
	sp.SetLane(7)
	sp.End()
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Lane != 7 {
		t.Fatalf("events = %+v, want one event on lane 7", evs)
	}
}

func TestWriteChromeTraceDeterministicAndWellFormed(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer(fakeClock(500))
		tr.SetLaneName(1, "worker-1")
		tr.SetLaneName(0, "worker-0")
		a := tr.Begin(0, "outer").Arg("x", "1")
		b := tr.Begin(1, "inner")
		tr.Instant(1, "hit")
		b.End()
		a.End()
		return tr
	}
	var buf1, buf2 bytes.Buffer
	if err := build().WriteChromeTrace(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("same events exported differently across runs")
	}

	var out struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			TS   float64           `json:"ts"`
			Dur  *float64          `json:"dur"`
			S    string            `json:"s"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf1.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var meta, complete, instant int
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" || ev.Args["name"] == "" {
				t.Fatalf("bad metadata event %+v", ev)
			}
		case "X":
			complete++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("complete event without duration: %+v", ev)
			}
		case "i":
			instant++
			if ev.S != "t" {
				t.Fatalf("instant event scope = %q, want t", ev.S)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 2 || instant != 1 {
		t.Fatalf("event mix meta=%d complete=%d instant=%d, want 2/2/1", meta, complete, instant)
	}
	// Lane metadata is sorted by lane id regardless of naming order.
	if out.TraceEvents[0].TID != 0 || out.TraceEvents[1].TID != 1 {
		t.Fatalf("lane metadata out of order: %+v", out.TraceEvents[:2])
	}
}

func TestRegistryCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter("bf_cache_hits_total", "Cache hits.", Label{"layer", "mem"})
	r.Counter("bf_cache_hits_total", "Cache hits.", Label{"layer", "disk"})
	g := r.Gauge("bf_inflight", "In-flight runs.")
	r.GaugeFunc("bf_info", "Build info.", func() float64 { return 1 }, Label{"version", "v9"})

	hits.Add(3)
	hits.Inc()
	g.Set(2.5)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# HELP bf_cache_hits_total Cache hits.\n",
		"# TYPE bf_cache_hits_total counter\n",
		"bf_cache_hits_total{layer=\"mem\"} 4\n",
		"bf_cache_hits_total{layer=\"disk\"} 0\n", // zero-value series still exposed
		"# TYPE bf_inflight gauge\n",
		"bf_inflight 2.5\n",
		"bf_info{version=\"v9\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n---\n%s", want, out)
		}
	}
	// One HELP/TYPE header per family, not per series.
	if n := strings.Count(out, "# TYPE bf_cache_hits_total"); n != 1 {
		t.Errorf("family header repeated %d times", n)
	}
}

// TestRegistryLabelValueEscaping: label values come from outside input
// (model names, bundle file names), so the scrape must use exactly the
// Prometheus text-format escapes — \\, \" and \n — and write every other
// byte (tab, non-ASCII, invalid UTF-8) as is, where Go quoting would emit
// \t or \x.. escapes a scraper rejects.
func TestRegistryLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("bf_predictions_total", "Predictions.", Label{"model", "a\tb\"c\\d\neé\xff"})
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	want := "bf_predictions_total{model=\"a\tb\\\"c\\\\d\\neé\xff\"} 0\n"
	if !strings.Contains(buf.String(), "\n"+want) {
		t.Fatalf("scrape missing line %q\n---\n%s", want, buf.String())
	}
}

func TestRegistryHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bf_lat_seconds", "Latency.", []float64{0.1, 1})
	cold := r.Histogram("bf_cold_seconds", "Never observed.", []float64{1})

	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# TYPE bf_lat_seconds histogram\n",
		"bf_lat_seconds_bucket{le=\"0.1\"} 1\n",
		"bf_lat_seconds_bucket{le=\"1\"} 2\n",
		"bf_lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"bf_lat_seconds_sum 5.55\n",
		"bf_lat_seconds_count 3\n",
		// Unhit histogram still emits its full zero-valued bucket set.
		"bf_cold_seconds_bucket{le=\"1\"} 0\n",
		"bf_cold_seconds_bucket{le=\"+Inf\"} 0\n",
		"bf_cold_seconds_sum 0\n",
		"bf_cold_seconds_count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n---\n%s", want, out)
		}
	}
	if cold.Count() != 0 {
		t.Errorf("cold histogram count = %d", cold.Count())
	}
	// Observations on the boundary land in the bucket whose le equals them.
	h2 := NewRegistry().Histogram("b", "h", []float64{1, 2})
	h2.Observe(1)
	if got := h2.Count(); got != 1 {
		t.Fatalf("count = %d", got)
	}
}

func TestRegistryNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metric handles returned non-zero values")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name with a different type did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("bf_x", "x")
	r.Gauge("bf_x", "x")
}

func TestRegistrySameSeriesReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("bf_y", "y", Label{"k", "v"})
	b := r.Counter("bf_y", "y", Label{"k", "v"})
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles do not share state")
	}
}

// TestRegistryRegisterDuringScrape: series may be registered at run time
// (a new status code, a newly loaded model) while another goroutine
// scrapes; under -race neither side may touch the other's state unlocked.
func TestRegistryRegisterDuringScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("bf_requests_total", "Requests.", Label{"code", "200"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			code := Label{"code", fmt.Sprint(300 + i)}
			r.Counter("bf_requests_total", "Requests.", code).Inc()
			r.Histogram("bf_latency_seconds", "Latency.", nil, code).Observe(0.01)
			r.GaugeFunc("bf_up", "Up.", func() float64 { return 1 }, code)
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
			r.WritePrometheus(io.Discard)
		}
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if n := strings.Count(buf.String(), "\nbf_requests_total{"); n != 201 {
		t.Fatalf("scrape has %d request series, want 201", n)
	}
}
