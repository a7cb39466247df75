package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one fixed name/value pair attached to a series at registration.
type Label struct {
	Name  string
	Value string
}

// Registry is a process-wide metrics registry: counters, gauges, and
// histograms registered once and rendered together in Prometheus text
// exposition format. Series with the same metric name but different labels
// form one family sharing a single # HELP/# TYPE header. Registration
// order is preserved in the scrape output, and every registered series —
// including never-incremented counters and never-observed histograms —
// emits its zero-value lines, so dashboards see the full series set from
// the first scrape. Series may be registered at run time, concurrently
// with scrapes.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series []*series
	byKey  map[string]*series
}

type series struct {
	labels []Label
	// Exactly one of the following backs the series.
	counter *Counter
	gauge   *Gauge
	gfn     func() float64
	hist    *Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter is a monotonically increasing count. Methods are safe on nil
// (no-ops), so optional instrumentation needs no guards.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. Methods are safe on nil.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the gauge's value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets. Methods are safe
// on nil.
type Histogram struct {
	buckets []float64 // upper bounds, ascending; +Inf implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
	count   atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefaultLatencyBuckets are the upper bounds (seconds) used for request
// and stage latency histograms: 100µs to ~10s, roughly ×3 per step.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10,
}

// labelKey canonicalizes a label set for duplicate detection.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// register returns the series for (name, labels), creating the family
// and series as needed; init fills in a new series' backing value under
// the lock, so a concurrent scrape never sees it half-built. It panics
// when a metric name is reused with a different type — that is a
// programming error, not a runtime condition.
func (r *Registry) register(name, help, typ string, labels []Label, init func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		r.families = append(r.families, f)
		r.byName[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	key := labelKey(labels)
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...)}
	init(s)
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s
}

// Counter registers (or fetches, when the same name and labels were
// registered before) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, "counter", labels, func(s *series) { s.counter = &Counter{} }).counter
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, "gauge", labels, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// GaugeFunc registers a gauge series whose value is read from fn at every
// scrape — the cheap way to expose an existing stats counter without
// double accounting. Registering a series that exists keeps the first.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, func(s *series) { s.gfn = fn })
}

// Histogram registers (or fetches) a histogram series with the given
// ascending upper bounds (+Inf is implicit; nil selects
// DefaultLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.register(name, help, "histogram", labels, func(s *series) {
		if buckets == nil {
			buckets = DefaultLatencyBuckets
		}
		bs := append([]float64(nil), buckets...)
		sort.Float64s(bs)
		s.hist = &Histogram{buckets: bs, counts: make([]atomic.Int64, len(bs)+1)}
	}).hist
}

// labelEscaper applies the only escapes the Prometheus text format defines
// for label values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabelValue escapes v for a quoted label value in Prometheus text
// exposition: backslash, double quote and newline are escaped, and every
// other byte — tabs, non-ASCII, invalid UTF-8 — is written as is.
func EscapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// formatLabels renders {a="x",b="y"} (empty string for no labels), with
// extra appended after the fixed labels (used for histogram le).
func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Name, EscapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every registered family in registration order:
// # HELP and # TYPE once per family, then one line per series — zero
// values included, so a registered-but-unhit histogram still exposes its
// full bucket set.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]family, len(r.families))
	for i, f := range r.families {
		fams[i] = family{name: f.name, help: f.help, typ: f.typ, series: append([]*series(nil), f.series...)}
	}
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels), s.counter.Value())
			case s.gfn != nil:
				fmt.Fprintf(w, "%s%s %g\n", f.name, formatLabels(s.labels), s.gfn())
			case s.gauge != nil:
				fmt.Fprintf(w, "%s%s %g\n", f.name, formatLabels(s.labels), s.gauge.Value())
			case s.hist != nil:
				var cum int64
				for i, ub := range s.hist.buckets {
					cum += s.hist.counts[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						formatLabels(s.labels, Label{"le", formatFloat(ub)}), cum)
				}
				cum += s.hist.counts[len(s.hist.buckets)].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, formatLabels(s.labels, Label{"le", "+Inf"}), cum)
				fmt.Fprintf(w, "%s_sum%s %g\n", f.name, formatLabels(s.labels), s.hist.Sum())
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, formatLabels(s.labels), s.hist.Count())
			}
		}
	}
}

func formatFloat(v float64) string { return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0") }
