package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"blackforest/internal/forest"
	"blackforest/internal/report"
	"blackforest/internal/stats"
)

// PredictBench measures forest inference latency: the flat compiled engine
// (single predicts and tree-major batches) against the frozen pointer-walker
// reference, on the same fitted forest and the same query set. Timings are
// single-threaded (Workers: 1) so the comparison isolates the engine, not
// the worker pool; the bit-identity column is the tentpole guarantee that
// the speedup changes nothing about the answers.
type PredictBench struct {
	Trees    int
	Features int
	Rows     int // training rows
	Queries  int // benchmark query rows

	SingleFlatNS    float64 // ns per single-vector Predict, flat engine
	SinglePointerNS float64 // ns per single-vector PredictPointer
	BatchFlatNS     float64 // ns per row, PredictAll (tree-major batch)
	BatchPointerNS  float64 // ns per row, row-major pointer loop

	BitIdentical bool
}

// RunPredictBench fits a synthetic forest and times both engines.
func RunPredictBench(o Options) (*PredictBench, error) {
	b := &PredictBench{Trees: 300, Features: 8, Rows: 1200, Queries: 4096}
	if o.Scale == Quick {
		b.Trees, b.Rows, b.Queries = 60, 300, 512
	}

	rng := stats.NewRNG(o.Seed)
	x := make([][]float64, b.Rows)
	y := make([]float64, b.Rows)
	names := make([]string, b.Features)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
	}
	for i := range x {
		x[i] = make([]float64, b.Features)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64() * 50
		}
		y[i] = 3*x[i][0] - 2*x[i][1] + 0.5*x[i][2]*x[i][2]/50 + rng.NormFloat64()
	}
	f, err := forest.Fit(x, y, names, forest.Config{
		NTrees: b.Trees, MinNodeSize: 5, Seed: o.Seed, Workers: 1,
	})
	if err != nil {
		return nil, err
	}

	queries := make([][]float64, b.Queries)
	for i := range queries {
		q := make([]float64, b.Features)
		for j := range q {
			q[j] = rng.NormFloat64() * 60
		}
		queries[i] = q
	}

	// Bit-identity gate before any timing: flat single, flat batch, and the
	// pointer oracle must agree on every query.
	b.BitIdentical = true
	batch, err := f.PredictAll(queries)
	if err != nil {
		return nil, err
	}
	for i, q := range queries {
		want := math.Float64bits(f.PredictPointer(q))
		if math.Float64bits(f.Predict(q)) != want || math.Float64bits(batch[i]) != want {
			b.BitIdentical = false
			break
		}
	}
	if !b.BitIdentical {
		return b, errors.New("experiments: flat engine diverged from the pointer walker")
	}

	var sink float64
	b.SingleFlatNS = timePerOp(b.Queries, func() {
		for _, q := range queries {
			sink += f.Predict(q)
		}
	})
	b.SinglePointerNS = timePerOp(b.Queries, func() {
		for _, q := range queries {
			sink += f.PredictPointer(q)
		}
	})
	out := make([]float64, b.Queries)
	b.BatchFlatNS = timePerOp(b.Queries, func() {
		batch, _ = f.PredictAll(queries) // the gate above ran these rows without error
		copy(out, batch)
		sink += out[0]
	})
	b.BatchPointerNS = timePerOp(b.Queries, func() {
		for i, q := range queries {
			out[i] = f.PredictPointer(q)
		}
		sink += out[0]
	})
	if math.IsNaN(sink) {
		return nil, errors.New("experiments: benchmark produced NaN")
	}
	return b, nil
}

// timePerOp runs fn (which performs rowsPerCall operations) until it has
// accumulated enough wall clock for a stable estimate, and returns
// nanoseconds per operation.
func timePerOp(rowsPerCall int, fn func()) float64 {
	const minDuration = 200 * time.Millisecond
	fn() // warm up
	var elapsed time.Duration
	calls := 0
	for elapsed < minDuration {
		start := time.Now()
		fn()
		elapsed += time.Since(start)
		calls++
	}
	return float64(elapsed.Nanoseconds()) / float64(calls*rowsPerCall)
}

// Render writes the engine comparison table.
func (b *PredictBench) Render(w io.Writer) error {
	fmt.Fprintf(w, "== forest predict latency: flat compiled engine vs pointer walker ==\n")
	fmt.Fprintf(w, "forest: %d trees, %d features; %d queries; single-threaded\n",
		b.Trees, b.Features, b.Queries)
	rows := [][]string{
		{"single", fmt.Sprintf("%.0f", b.SingleFlatNS), fmt.Sprintf("%.0f", b.SinglePointerNS),
			fmt.Sprintf("%.2fx", b.SinglePointerNS/b.SingleFlatNS)},
		{"batch(tree-major)", fmt.Sprintf("%.0f", b.BatchFlatNS), fmt.Sprintf("%.0f", b.BatchPointerNS),
			fmt.Sprintf("%.2fx", b.BatchPointerNS/b.BatchFlatNS)},
	}
	if err := report.Table(w, []string{"mode", "flat ns/row", "pointer ns/row", "speedup"}, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "bit-identical to pointer walker: %v\n", b.BitIdentical)
	return nil
}
