package forest

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"blackforest/internal/rtree"
	"blackforest/internal/stats"
)

// pointerForest is the frozen reference implementation the flat engine is
// differentially tested against: the trees grow returns for a fitted
// forest, rebuilt in the tree-form node-list layout and walked node by
// node.
type pointerForest struct {
	trees []*rtree.ExportedTree
	oob   [][]int
	seeds []uint64
}

// regrow grows f's trees again through grow, the function Fit grows them
// with, from f's retained training data and completed config, and checks
// that they join into f's node array. A forest loaded from a bundle keeps
// no training data, so it has no pointer form.
func regrow(f *Forest) (*pointerForest, error) {
	if f.x == nil {
		return nil, errors.New("forest: pointer engine unavailable (loaded from a bundle)")
	}
	trees, gains, oob, seeds, err := grow(f.x, f.y, f.cfg)
	if err != nil {
		return nil, err
	}
	joined, err := rtree.Join(trees)
	if err != nil {
		return nil, err
	}
	if !joined.Equal(f.flat) {
		return nil, errors.New("forest: regrown trees differ from the fitted forest")
	}
	pf := &pointerForest{trees: make([]*rtree.ExportedTree, len(trees)), oob: oob, seeds: seeds}
	for i, t := range trees {
		pf.trees[i] = nodeList(t.Export(), gains[i])
	}
	return pf, nil
}

// nodeList rewrites a one-tree flat forest in the tree-form node list: a
// leaf's value goes to v, an internal node's threshold to t, and the
// children keep their offsets (one tree's offsets are local).
func nodeList(e *rtree.ExportedFlatForest, purity []float64) *rtree.ExportedTree {
	vals := make([]float64, len(e.Feature))
	for i := range vals {
		switch v := e.Values; v.Enc {
		case "dict16":
			vals[i] = v.Table[v.Idx[i]]
		case "f32":
			vals[i] = float64(v.F32[i])
		default:
			vals[i] = v.F64[i]
		}
	}
	t := &rtree.ExportedTree{NFeatures: e.NFeatures, PurityGain: purity}
	for i, f := range e.Feature {
		n := rtree.ExportedNode{Feature: int(f), Value: vals[i]}
		if f >= 0 {
			n = rtree.ExportedNode{Feature: int(f), Threshold: vals[i], Left: e.Left[i], Right: e.Right[i]}
		}
		t.Nodes = append(t.Nodes, n)
	}
	return t
}

// mustRegrow is regrow for fitted forests: an error fails the test.
func mustRegrow(t testing.TB, f *Forest) *pointerForest {
	t.Helper()
	pf, err := regrow(f)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// predictTree walks a tree-form node list node by node: x[feature] <=
// threshold goes left.
func predictTree(e *rtree.ExportedTree, x []float64) float64 {
	if len(x) != e.NFeatures {
		panic(fmt.Sprintf("rtree: predicting with %d features, tree has %d", len(x), e.NFeatures))
	}
	i := int32(0)
	for {
		n := &e.Nodes[i]
		if n.Feature < 0 {
			return n.Value
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// predict is the forest prediction: tree responses summed in tree order.
func (pf *pointerForest) predict(x []float64) float64 {
	var s float64
	for _, t := range pf.trees {
		s += predictTree(t, x)
	}
	return s / float64(len(pf.trees))
}

// sameBits fails the test at the first index where got and want differ in
// bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, pointer oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestTrainingStatisticsMatchPointerOracle: out-of-bag error, permutation
// importance, purity and partial-dependence bands, computed on the flat
// node array, equal bit for bit what the grown trees give when walked node
// by node, for several seeds and worker counts. The oracle permutes every
// predictor, including the ones a tree never splits on, which Fit skips.
func TestTrainingStatisticsMatchPointerOracle(t *testing.T) {
	x, y, names := friedman1(90, 21)
	for _, seed := range []uint64{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d/workers%d", seed, workers), func(t *testing.T) {
				f, err := Fit(x, y, names, Config{NTrees: 25, MinNodeSize: 3, Seed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				pf := mustRegrow(t, f)
				n, p := len(x), len(names)

				// Out-of-bag predictions and MSE.
				sum := make([]float64, n)
				cnt := make([]int, n)
				for ti, tree := range pf.trees {
					for _, i := range pf.oob[ti] {
						sum[i] += predictTree(tree, x[i])
						cnt[i]++
					}
				}
				oobPred := make([]float64, n)
				var sse float64
				var used int
				for i := range sum {
					if cnt[i] == 0 {
						oobPred[i] = math.NaN()
						continue
					}
					oobPred[i] = sum[i] / float64(cnt[i])
					d := oobPred[i] - y[i]
					sse += d * d
					used++
				}
				sameBits(t, "OOBPredictions", f.OOBPredictions(), oobPred)
				sameBits(t, "OOBMSE", []float64{f.OOBMSE()}, []float64{sse / float64(used)})

				// Permutation importance, reduced in tree order, and purity.
				sumInc := make([]float64, p)
				sumIncSq := make([]float64, p)
				purity := make([]float64, p)
				trees := 0
				for ti, tree := range pf.trees {
					oob := pf.oob[ti]
					if len(oob) == 0 {
						continue
					}
					rng := stats.NewRNG(pf.seeds[ti] ^ 0x5bf03635)
					var baseSSE float64
					for _, i := range oob {
						d := predictTree(tree, x[i]) - y[i]
						baseSSE += d * d
					}
					baseMSE := baseSSE / float64(len(oob))
					perm := make([]int, len(oob))
					for j := 0; j < p; j++ {
						copy(perm, oob)
						rng.ShuffleInts(perm)
						var sse float64
						for k, i := range oob {
							row := append([]float64(nil), x[i]...)
							row[j] = x[perm[k]][j]
							d := predictTree(tree, row) - y[i]
							sse += d * d
						}
						inc := sse/float64(len(oob)) - baseMSE
						sumInc[j] += inc
						sumIncSq[j] += inc * inc
					}
					trees++
				}
				rawImp := make([]float64, p)
				impSE := make([]float64, p)
				for j := 0; j < p; j++ {
					mean := sumInc[j] / float64(trees)
					rawImp[j] = mean
					v := sumIncSq[j]/float64(trees) - mean*mean
					if v < 0 {
						v = 0
					}
					impSE[j] = math.Sqrt(v / float64(trees))
				}
				for _, tree := range pf.trees {
					for j, g := range tree.PurityGain {
						purity[j] += g
					}
				}
				sameBits(t, "raw importance", f.rawImp, rawImp)
				sameBits(t, "importance SE", f.impSE, impSE)
				sameBits(t, "purity", f.purity, purity)

				// Partial-dependence response and bands.
				level := 0.8 // a variable: constant folding would round (1-level)/2 differently
				grid, resp, lo, hi, err := f.PartialDependenceCI(names[1], 9, level)
				if err != nil {
					t.Fatal(err)
				}
				wantResp := make([]float64, len(grid))
				wantLo := make([]float64, len(grid))
				wantHi := make([]float64, len(grid))
				perTree := make([]float64, len(pf.trees))
				for g, v := range grid {
					for ti, tree := range pf.trees {
						var s float64
						for _, r := range x {
							row := append([]float64(nil), r...)
							row[1] = v
							s += predictTree(tree, row)
						}
						perTree[ti] = s / float64(n)
					}
					wantResp[g] = stats.Mean(perTree)
					wantLo[g] = stats.Quantile(perTree, (1-level)/2)
					wantHi[g] = stats.Quantile(perTree, (1+level)/2)
				}
				sameBits(t, "PD response", resp, wantResp)
				sameBits(t, "PD lo", lo, wantLo)
				sameBits(t, "PD hi", hi, wantHi)
			})
		}
	}
}

// BenchmarkForestPredictPointer walks the frozen pointer reference — the
// baseline the flat engine's ns/op is compared against. The forest has the
// shape of the root package's BenchmarkForestPredict: 500 trees fitted on
// 100 rows of 20 features.
func BenchmarkForestPredictPointer(b *testing.B) {
	rng := stats.NewRNG(2)
	x, y, names := randomProblem(rng, 100, 20)
	f, err := Fit(x, y, names, Config{NTrees: 500, Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	pf := mustRegrow(b, f)
	probe, _, _ := randomProblem(rng, 1, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.predict(probe[0])
	}
}
