package forest

import (
	"testing"

	"blackforest/internal/stats"
)

// PredictPointer is the frozen pointer-walking reference implementation:
// the per-tree node-by-node walk the flat engine is differentially tested
// against (bit-identical output). It is unavailable on a forest loaded from
// a flat bundle, which carries no per-tree nodes.
func (f *Forest) PredictPointer(x []float64) float64 {
	if len(f.trees) == 0 {
		panic("forest: pointer engine unavailable (loaded from a flat bundle)")
	}
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// BenchmarkForestPredictPointer walks the frozen pointer-linked reference —
// the baseline the flat engine's ns/op is compared against. The forest has
// the shape of the root package's BenchmarkForestPredict: 500 trees fitted
// on 100 rows of 20 features.
func BenchmarkForestPredictPointer(b *testing.B) {
	rng := stats.NewRNG(2)
	x, y, names := randomProblem(rng, 100, 20)
	f, err := Fit(x, y, names, Config{NTrees: 500, Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	probe, _, _ := randomProblem(rng, 1, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictPointer(probe[0])
	}
}
