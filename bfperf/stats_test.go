package main

import (
	"math"
	"testing"
	"time"

	"blackforest/internal/gpusim"
	"blackforest/internal/obs"
)

func TestTailPctNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{19, ""}, {20, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"},
		{1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}, {100000, "p99.99"},
	} {
		p, ok := tailPct(tc.n)
		if got := map[bool]string{true: p.name}[ok]; got != tc.want {
			t.Errorf("tailPct(%d) = %q, want %q", tc.n, got, tc.want)
		}
		if ok && tc.n-p.rank(tc.n) < 10 {
			t.Errorf("tailPct(%d) = %s leaves %d samples beyond it", tc.n, p.name, tc.n-p.rank(tc.n))
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "pass", start: 0, end: 100, parent: -1},
		{name: "collect", start: 10, end: 60, parent: 0},
		{name: "run a", start: 10, end: 40, parent: 1}, // two slots overlap
		{name: "run b", start: 20, end: 50, parent: 1},
		{name: "analyze", start: 70, end: 100, parent: 0},
		{name: "late", start: 90, end: 120, parent: 4}, // clipped to its parent
	}
	want := []int64{100 - 50 - 30, 50 - 40, 30, 30, 30 - 10, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got, want[i])
		}
	}
}

func TestTreeNestsProfilerSpansUnderTheirCollection(t *testing.T) {
	now := int64(0)
	clock := func() int64 { return now }
	rec := &recorder{clock: clock, bench: obs.NewTracer(clock)}
	dev, err := gpusim.LookupDevice("GTX580")
	if err != nil {
		t.Fatal(err)
	}
	pass := rec.begin("pass")
	now = 10
	collect := rec.begin("collect")
	side := rec.side(dev, 0, nil)
	run := side.Begin(0, "run needle")
	now = 11
	attempt := side.Begin(0, "attempt")
	sim := side.Begin(0, "simulate").Arg("workload", "needle")
	now = 30
	sim.End()
	now = 32
	attempt.End()
	run.End()
	now = 40
	collect.End()
	now = 50
	pass.End()

	spans := rec.tree()
	parent := map[string]string{}
	for _, s := range spans {
		if s.parent >= 0 {
			parent[s.name] = spans[s.parent].name
		}
	}
	for child, want := range map[string]string{
		"collect": "pass", "run needle": "collect", "attempt": "run needle", "simulate": "attempt",
	} {
		if parent[child] != want {
			t.Errorf("parent of %q = %q, want %q", child, parent[child], want)
		}
	}
	l := rec.layers(spans, named(spans, "pass")[0])
	if l.simulateS != sec(19) || l.simulateByKernel["needle.GTX580"] != sec(19) || l.overheadS != sec(2) ||
		l.collectS != sec(30) || l.unattributedS != sec(20) || l.childrenS != sec(30) || l.runs != 1 {
		t.Errorf("layers = %+v", l)
	}
}

// fakeClock is a single-goroutine clock: sleeping jumps to the wake time,
// and a send advances it by its service time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) { c.t = max(c.t, t) }

func TestOpenLoopTimesFromDueUnderStall(t *testing.T) {
	clk := &fakeClock{}
	samples, aborted := openLoop(clk, 1000, 40, 1, time.Second, func(i int) bool {
		if i == 10 {
			clk.t += 20 * time.Millisecond // the stall
		} else {
			clk.t += 100 * time.Microsecond
		}
		return true
	})
	if aborted {
		t.Fatal("aborted")
	}
	// Request 11 was due at 11 ms but could only be sent when the stalled
	// request 10 returned at 30 ms: its latency counts from 11 ms.
	s := samples[11]
	if s.due != 11*time.Millisecond || s.sent != 30*time.Millisecond {
		t.Fatalf("request 11: due %v, sent %v", s.due, s.sent)
	}
	if got := s.latencyMS(); math.Abs(got-19.1) > 1e-9 {
		t.Errorf("latency from due = %v ms, want 19.1", got)
	}
	p90 := pct{"p90", 9, 10}
	if got := p90.at(sortedBy(samples, sample.serviceMS)); got > 0.1+1e-9 {
		t.Errorf("service-time p90 = %v ms, want 0.1: timed from the send, the stall hides", got)
	}
	if got := p90.at(sortedBy(samples, sample.latencyMS)); got < 10 {
		t.Errorf("due-time p90 = %v ms, want the stall's victims (>= 10 ms)", got)
	}
	if lag := samples[39].lagMS(); lag != 0 {
		t.Errorf("request 39 lag = %v ms, want 0 once the generator caught up", lag)
	}
}

func TestOpenLoopAbortsAndLagGrows(t *testing.T) {
	clk := &fakeClock{}
	samples, aborted := openLoop(clk, 1000, 100, 1, 5*time.Millisecond, func(int) bool {
		clk.t += 2 * time.Millisecond // half the offered rate
		return true
	})
	is := issued(samples)
	if !aborted || len(is) == 0 || len(is) == 100 || is[len(is)-1].lagMS() > 5 {
		t.Fatalf("aborted %v after %d sends", aborted, len(is))
	}
	if lagGrows([]float64{0.1, 0.3, 0.2, 0.1, 0.4, 0.2, 0.1, 0.3}, 1) {
		t.Error("steady lag reported as growing")
	}
	if !lagGrows([]float64{0.1, 0.2, 1, 2, 3, 4, 5, 6}, 1) {
		t.Error("growing lag not reported")
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	clk := &fakeClock{}
	samples := closedLoop(clk, 50, 1, func(int) bool {
		clk.t += 2 * time.Millisecond
		return true
	})
	for i, s := range samples {
		if !s.issued || s.sent != time.Duration(2*i)*time.Millisecond || s.lagMS() != 0 {
			t.Fatalf("request %d: %+v, want sent at %d ms with no lag", i, s, 2*i)
		}
	}
	st := (&phaseRun{samples: samples}).stats(1)
	if st.n != 50 || math.Abs(st.goodputRPS-500) > 1e-9 || st.p50MS != 2 {
		t.Errorf("stats = %+v, want 50 requests at 500 req/s with p50 2 ms", st)
	}
}
