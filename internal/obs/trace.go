// Package obs is BlackForest's observability layer: a span tracer whose
// traces export as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing), and a process-wide metrics registry rendered in
// Prometheus text exposition format.
//
// Both halves follow the repository's determinism discipline:
//
//   - A nil *Tracer is fully disabled and zero-cost — Begin returns a nil
//     *Span whose methods no-op, so instrumented code paths execute the
//     exact same instructions on the data they model. Every output the
//     pipeline produces with tracing off is bit-identical to HEAD, and
//     tracing on only ever *adds* a trace file (pinned by differential
//     tests, like the faults-off guarantee).
//   - The tracer's clock is injected: production uses a monotonic wall
//     clock, tests freeze time with a counter so exported traces are
//     byte-for-byte reproducible.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Arg is one key/value annotation attached to a span or instant event; it
// renders into the Chrome trace event's "args" object.
type Arg struct {
	Key   string
	Value string
}

// Event is one recorded trace event. Complete events (Phase 'X') carry a
// duration; instant events (Phase 'i') mark a point in time.
type Event struct {
	Name  string
	Lane  int
	Phase byte // 'X' complete, 'i' instant
	// StartNS/DurNS are nanoseconds on the tracer's clock.
	StartNS int64
	DurNS   int64
	Args    []Arg
}

// Tracer records spans and instant events on numbered lanes (Chrome trace
// "threads"): one lane per worker makes scheduler occupancy visible as a
// timeline. All methods are safe for concurrent use. The nil *Tracer is
// the disabled tracer: every method no-ops and allocates nothing.
type Tracer struct {
	clock func() int64 // nanoseconds; monotonic within one trace

	mu     sync.Mutex
	events []Event
	lanes  map[int]string
}

// NewTracer builds a tracer. clock returns the current trace time in
// nanoseconds and must be monotonic non-decreasing; nil selects a real
// monotonic clock anchored at the call to NewTracer. Tests inject a frozen
// counter so exported traces are deterministic.
func NewTracer(clock func() int64) *Tracer {
	if clock == nil {
		start := time.Now()
		clock = func() int64 { return time.Since(start).Nanoseconds() }
	}
	return &Tracer{clock: clock, lanes: make(map[int]string)}
}

// Enabled reports whether the tracer records anything (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// SetLaneName labels a lane; the name shows as the thread name in the
// exported trace.
func (t *Tracer) SetLaneName(lane int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[lane] = name
	t.mu.Unlock()
}

// Span is one in-flight span. The zero of *Span (nil, as returned by a
// disabled tracer) is valid: Arg and End no-op.
type Span struct {
	t     *Tracer
	lane  int
	name  string
	start int64
	args  []Arg
}

// Begin opens a span on a lane. It returns nil when the tracer is
// disabled, costing no allocation.
func (t *Tracer) Begin(lane int, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, lane: lane, name: name, start: t.clock()}
}

// Arg annotates the span; it returns the span for chaining and no-ops on
// nil.
func (s *Span) Arg(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, Arg{key, value})
	return s
}

// End closes the span and records it. Safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.clock()
	dur := end - s.start
	if dur < 0 {
		dur = 0
	}
	s.t.record(Event{Name: s.name, Lane: s.lane, Phase: 'X', StartNS: s.start, DurNS: dur, Args: s.args})
}

// Instant records a zero-duration marker event on a lane.
func (t *Tracer) Instant(lane int, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.record(Event{Name: name, Lane: lane, Phase: 'i', StartNS: t.clock(), Args: args})
}

func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a snapshot of the recorded events in recording order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len returns the number of recorded events (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// chromeEvent is the trace-event JSON schema understood by Perfetto and
// chrome://tracing. Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace exports the recorded events as Chrome trace-event JSON.
// Events are ordered by (start, lane, name) and lane names become thread
// names, so the export is a pure function of the recorded events — with a
// frozen clock, byte-for-byte reproducible.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: cannot export a disabled (nil) tracer")
	}
	t.mu.Lock()
	events := append([]Event(nil), t.events...)
	laneIDs := make([]int, 0, len(t.lanes))
	for id := range t.lanes {
		laneIDs = append(laneIDs, id)
	}
	lanes := make(map[int]string, len(t.lanes))
	for id, name := range t.lanes {
		lanes[id] = name
	}
	t.mu.Unlock()

	sort.Ints(laneIDs)
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].StartNS != events[j].StartNS {
			return events[i].StartNS < events[j].StartNS
		}
		if events[i].Lane != events[j].Lane {
			return events[i].Lane < events[j].Lane
		}
		return events[i].Name < events[j].Name
	})

	out := chromeTrace{DisplayTimeUnit: "ms"}
	for _, id := range laneIDs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]string{"name": lanes[id]},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name,
			Ph:   string(ev.Phase),
			PID:  1,
			TID:  ev.Lane,
			TS:   float64(ev.StartNS) / 1e3,
		}
		if ev.Phase == 'X' {
			dur := float64(ev.DurNS) / 1e3
			ce.Dur = &dur
		}
		if ev.Phase == 'i' {
			ce.S = "t" // thread-scoped instant
		}
		if len(ev.Args) > 0 {
			ce.Args = make(map[string]string, len(ev.Args))
			for _, a := range ev.Args {
				ce.Args[a.Key] = a.Value
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTraceFile exports the trace to a file.
func (t *Tracer) WriteChromeTraceFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return t.WriteChromeTrace(f)
}
