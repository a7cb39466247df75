package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pct is a percentile as an exact fraction num/den, so the sample rank
// arithmetic stays in integers.
type pct struct {
	name     string
	num, den int
}

// tailPcts are the percentiles a timing's tail may be reported at, highest
// first.
var tailPcts = []pct{
	{"p99.99", 9999, 10000},
	{"p99.9", 999, 1000},
	{"p99", 99, 100},
	{"p90", 9, 10},
	{"p50", 1, 2},
}

// rank is the 1-based nearest-rank position of percentile p in n samples:
// the smallest rank with at least p of the samples at or below it.
func (p pct) rank(n int) int {
	r := (n*p.num + p.den - 1) / p.den
	return max(r, 1)
}

// at returns percentile p of sorted samples by nearest rank.
func (p pct) at(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(p.rank(len(sorted)), len(sorted))-1]
}

// tailPct returns the highest percentile of n samples that has at least ten
// samples beyond it; false when n is too small for any (n < 20).
func tailPct(n int) (pct, bool) {
	for _, p := range tailPcts {
		if n-p.rank(n) >= 10 {
			return p, true
		}
	}
	return pct{}, false
}

// lagGrows reports whether a sender fell progressively further behind its
// schedule: the median lag over the last quarter of sends exceeds the
// median over the first quarter by more than slack.
func lagGrows(lagsMS []float64, slackMS float64) bool {
	q := len(lagsMS) / 4
	if q == 0 {
		return false
	}
	return median(lagsMS[len(lagsMS)-q:])-median(lagsMS[:q]) > slackMS
}

// clock is the open-loop generator's time source: durations since the
// phase started. Tests substitute a fake to inject stalls.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// wallClock is the real monotonic clock, anchored at the phase start.
type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// sample is one scheduled request: when it was due, when it was actually
// sent, and when its answer arrived, all on the phase clock.
type sample struct {
	due, sent, done time.Duration
	issued          bool // false when the phase stopped before sending it
	ok              bool // answered with a valid response
}

// latencyMS is the request's latency counted from when it was due, so a
// stall that delays later sends is charged to every request it delays.
func (s sample) latencyMS() float64 { return ms(s.done - s.due) }

// lagMS is how late the generator sent the request.
func (s sample) lagMS() float64 { return ms(s.sent - s.due) }

// serviceMS is the request's round trip from the moment it was sent.
func (s sample) serviceMS() float64 { return ms(s.done - s.sent) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop issues n requests on a fixed schedule, request i due at i/rate
// after the phase start, over conns concurrent senders. A request whose
// sender is still busy when it falls due waits for one, and that wait
// counts in its latency. Once a send runs more than abortLag behind
// schedule, the remaining requests are not issued: the offered rate is
// beyond capacity and waiting out the backlog would measure nothing new.
// send performs request i and reports whether it was answered correctly.
func openLoop(clk clock, rate float64, n, conns int, abortLag time.Duration, send func(i int) bool) (samples []sample, aborted bool) {
	samples = make([]sample, n)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := time.Duration(float64(i) * float64(time.Second) / rate)
				clk.sleepUntil(due)
				sent := clk.now()
				if sent-due > abortLag {
					stop.Store(true)
					return
				}
				ok := send(i)
				samples[i] = sample{due: due, sent: sent, done: clk.now(), issued: true, ok: ok}
			}
		}()
	}
	wg.Wait()
	return samples, stop.Load()
}

// closedLoop sends requests 0..n-1 over conns senders, each sending its
// next request as soon as its previous one is answered, so the rate is the
// server's. A request is due when it is sent.
func closedLoop(clk clock, n, conns int, send func(i int) bool) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				sent := clk.now()
				ok := send(i)
				samples[i] = sample{due: sent, sent: sent, done: clk.now(), issued: true, ok: ok}
			}
		}()
	}
	wg.Wait()
	return samples
}

// issued returns the samples of the requests that were sent.
func issued(samples []sample) []sample {
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if s.issued {
			out = append(out, s)
		}
	}
	return out
}

// sortedBy maps the samples through f and sorts the result.
func sortedBy(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	sort.Float64s(out)
	return out
}

// mean returns the arithmetic mean, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ape returns the absolute percentage error of a prediction.
func ape(pred, actual float64) float64 {
	return 100 * math.Abs(pred-actual) / math.Abs(actual)
}
