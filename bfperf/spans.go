package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blackforest/internal/gpusim"
	"blackforest/internal/obs"
	"blackforest/internal/profiler"
)

// benchLane is the trace lane of the benchmark's own spans; the profiler's
// spans use the simulation slot ids 0..nproc-1 and profiler.LaneCache.
const benchLane = 100

// recorder collects one traced run's spans: the benchmark's own spans
// around each public call, on benchLane, and the spans the profiler emits
// inside each collection, one tracer per collected device so a simulation
// can be attributed to its device. All tracers share one clock. A nil
// recorder records nothing.
type recorder struct {
	clock func() int64
	bench *obs.Tracer
	sides []side
}

// side is one device's half of one collection call: enough to rebuild its
// runs' cache keys.
type side struct {
	device string
	dev    *gpusim.Device
	seed   uint64
	runs   []profiler.Workload
	tracer *obs.Tracer
}

func newRecorder() *recorder {
	t0 := time.Now()
	clock := func() int64 { return time.Since(t0).Nanoseconds() }
	return &recorder{clock: clock, bench: obs.NewTracer(clock)}
}

// begin opens a benchmark span; End it when the call returns. Nil-safe.
func (r *recorder) begin(name string) *obs.Span {
	if r == nil {
		return nil
	}
	return r.bench.Begin(benchLane, name)
}

// side returns the tracer for one device's half of a collection (nil when
// not tracing).
func (r *recorder) side(dev *gpusim.Device, seed uint64, runs []profiler.Workload) *obs.Tracer {
	if r == nil {
		return nil
	}
	t := obs.NewTracer(r.clock)
	r.sides = append(r.sides, side{device: dev.Name, dev: dev, seed: seed, runs: runs, tracer: t})
	return t
}

// span is one recorded complete span in the assembled tree.
type span struct {
	name       string
	lane       int
	start, end int64 // ns on the recorder clock
	parent     int   // index into the tree, -1 for a root
	tracer     int   // -1 for benchmark spans, else index into sides
	workload   string
}

func (s span) dur() int64 { return s.end - s.start }

// encloses reports whether s covers t's whole interval.
func (s span) encloses(t span) bool { return s.start <= t.start && t.end <= s.end }

// tree assembles every recorded complete span into one forest. A
// benchmark span's parent is the narrowest benchmark span enclosing it. A
// profiler span's parent is the narrowest span of the same tracer and lane
// enclosing it (run ⊃ attempt ⊃ simulate), and an outermost profiler span
// hangs off the narrowest benchmark span enclosing it: the collection call
// that caused it.
func (r *recorder) tree() []span {
	var spans []span
	add := func(tr *obs.Tracer, idx int) {
		for _, ev := range tr.Events() {
			if ev.Phase != 'X' {
				continue
			}
			s := span{name: ev.Name, lane: ev.Lane, start: ev.StartNS, end: ev.StartNS + ev.DurNS, tracer: idx}
			for _, a := range ev.Args {
				if a.Key == "workload" {
					s.workload = a.Value
				}
			}
			spans = append(spans, s)
		}
	}
	add(r.bench, -1)
	for i, sd := range r.sides {
		add(sd.tracer, i)
	}
	for i := range spans {
		spans[i].parent = narrowest(spans, i, func(p span) bool {
			return p.tracer == spans[i].tracer && p.lane == spans[i].lane
		})
		if spans[i].parent < 0 && spans[i].tracer >= 0 {
			spans[i].parent = narrowest(spans, i, func(p span) bool { return p.tracer < 0 })
		}
	}
	return spans
}

// named returns the indices of the benchmark spans called name in the
// order they ended, which for sequential calls is the order they ran.
func named(spans []span, name string) []int {
	var out []int
	for i, s := range spans {
		if s.tracer < 0 && s.name == name {
			out = append(out, i)
		}
	}
	return out
}

// narrowest returns the index of the shortest span other than i that
// encloses spans[i] and satisfies eligible, or -1. Ties in duration go to
// the later-starting span, and then to the later-recorded one, so a span
// nests inside an equal-length span recorded before it.
func narrowest(spans []span, i int, eligible func(span) bool) int {
	best := -1
	for j, p := range spans {
		if j == i || !eligible(p) || !p.encloses(spans[i]) {
			continue
		}
		// An equal interval recorded after i is i's child, not its parent.
		if p.start == spans[i].start && p.end == spans[i].end && j > i {
			continue
		}
		if best < 0 || p.dur() < spans[best].dur() || (p.dur() == spans[best].dur() && j > best) {
			best = j
		}
	}
	return best
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (runs on parallel simulation slots); the covered part is their union.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// passLayers is the per-layer breakdown of one traced analysis pass.
type passLayers struct {
	wallS, unattributedS float64
	// childrenS is the summed wall of the pass's direct children, which run
	// one after another: with unattributedS it reconciles to wallS.
	childrenS            float64
	simulateS, overheadS float64
	simulateByKernel     map[string]float64 // "<kernel>.<device>" → s
	collectS, runSpanS   float64
	runs, attempts       int
	core                 map[string]float64 // benchmark span name → self s
}

// layers splits the traced pass rooted at span index root into layers by
// self time. Benchmark spans map to the core module by their call name,
// except "collect", whose self time (cache lookups and frame assembly
// outside any simulation slot) belongs to the profiler like run and
// attempt; simulate is the simulator.
func (r *recorder) layers(spans []span, root int) passLayers {
	self := selfTimes(spans)
	in := func(i int) bool {
		for ; i >= 0; i = spans[i].parent {
			if i == root {
				return true
			}
		}
		return false
	}
	l := passLayers{
		wallS:            sec(spans[root].dur()),
		unattributedS:    sec(self[root]),
		simulateByKernel: map[string]float64{},
		core:             map[string]float64{},
	}
	for i, s := range spans {
		if i == root || !in(i) {
			continue
		}
		if s.parent == root {
			l.childrenS += sec(s.dur())
		}
		switch {
		case s.tracer < 0 && s.name == "collect":
			l.collectS += sec(s.dur())
		case s.tracer < 0:
			l.core[s.name] += sec(self[i])
		case s.name == "simulate":
			l.simulateS += sec(self[i])
			l.simulateByKernel[s.workload+"."+r.sides[s.tracer].device] += sec(self[i])
		case s.name == "attempt":
			l.overheadS += sec(self[i])
			l.attempts++
		case strings.HasPrefix(s.name, "run "):
			l.runSpanS += sec(s.dur())
			l.runs++
		}
	}
	return l
}

func sec(ns int64) float64 { return float64(ns) / 1e9 }

// writeChromeTrace merges every tracer's events into one Chrome trace file.
// The events are replayed into a fresh tracer whose clock is set to each
// event's timestamps, so the export format is exactly obs's.
func (r *recorder) writeChromeTrace(path string, slots int) error {
	var now int64
	out := obs.NewTracer(func() int64 { return now })
	out.SetLaneName(benchLane, "bench")
	out.SetLaneName(profiler.LaneCache, "cache")
	for i := 0; i < slots; i++ {
		out.SetLaneName(i, fmt.Sprintf("slot-%d", i))
	}
	replay := func(tr *obs.Tracer, device string) {
		for _, ev := range tr.Events() {
			args := ev.Args
			if device != "" {
				args = append(append([]obs.Arg(nil), args...), obs.Arg{Key: "device", Value: device})
			}
			now = ev.StartNS
			if ev.Phase == 'i' {
				out.Instant(ev.Lane, ev.Name, args...)
				continue
			}
			sp := out.Begin(ev.Lane, ev.Name)
			for _, a := range args {
				sp.Arg(a.Key, a.Value)
			}
			now = ev.StartNS + ev.DurNS
			sp.End()
		}
	}
	replay(r.bench, "")
	for _, sd := range r.sides {
		replay(sd.tracer, sd.device)
	}
	return out.WriteChromeTraceFile(path)
}
