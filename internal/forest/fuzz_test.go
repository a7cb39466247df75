package forest

import (
	"math"
	"testing"

	"blackforest/internal/stats"
)

// pdOracle is PartialDependence as a per-row walk: for every grid point,
// each training row, with predictor j forced to the point, goes through
// Predict, and the predictions are summed in row order.
func pdOracle(f *Forest, j int, grid []float64) []float64 {
	rows := copyRowsFlat(f.x)
	response := make([]float64, len(grid))
	for g, v := range grid {
		var s float64
		for _, row := range rows {
			row[j] = v
			s += f.Predict(row)
		}
		response[g] = s / float64(f.nSamples)
	}
	return response
}

// pdCIOracle is PartialDependenceCI as a per-row walk: for every grid
// point, each tree's partial dependence is its PredictTree response summed
// over the training rows, in row order, with predictor j forced to the
// point; the band is the spread of those per-tree values.
func pdCIOracle(f *Forest, j int, grid []float64, level float64) (response, lo, hi []float64) {
	if !(level > 0 && level < 1) {
		level = 0.9
	}
	rows := copyRowsFlat(f.x)
	perTree := make([]float64, f.flat.NumTrees())
	response = make([]float64, len(grid))
	lo = make([]float64, len(grid))
	hi = make([]float64, len(grid))
	for g, v := range grid {
		for _, row := range rows {
			row[j] = v
		}
		for t := range perTree {
			var s float64
			for _, row := range rows {
				s += f.flat.PredictTree(t, row)
			}
			perTree[t] = s / float64(f.nSamples)
		}
		response[g] = stats.Mean(perTree)
		lo[g] = stats.Quantile(perTree, (1-level)/2)
		hi[g] = stats.Quantile(perTree, (1+level)/2)
	}
	return response, lo, hi
}

// FuzzPartialDependenceMatchesRowWalk checks both partial-dependence forms
// against their per-row oracles, bit for bit, for every predictor of a
// small forest. Columns take a few integer levels, so ties are common, the
// trees' thresholds are half-integers and a grid often lands exactly on
// one (where > and >= part ways); column 0 is constant on request, which
// makes its grid all-equal. Responses come from a five-value set, so tied
// values often carry unequal responses.
func FuzzPartialDependenceMatchesRowWalk(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(3), uint8(3), uint8(8), uint8(0), uint8(4), 0.9, false)
	f.Add(uint64(2), uint8(38), uint8(2), uint8(2), uint8(2), uint8(1), uint8(7), 0.5, true)
	f.Add(uint64(3), uint8(5), uint8(0), uint8(0), uint8(0), uint8(3), uint8(0), -1.0, true)
	f.Add(uint64(4), uint8(30), uint8(4), uint8(4), uint8(24), uint8(2), uint8(5), 0.999, false)
	f.Add(uint64(5), uint8(12), uint8(1), uint8(1), uint8(4), uint8(0), uint8(2), math.NaN(), false)
	f.Fuzz(func(t *testing.T, seed uint64, rows, feats, levels, gridSize, workers, trees uint8, level float64, constant bool) {
		n := 2 + int(rows)%39
		p := 1 + int(feats)%5
		nLevels := 1 + int(levels)%5
		rng := stats.NewRNG(seed)
		responses := []float64{0.1, 0.7, 1.3, 1e-3, 29.9}
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = make([]float64, p)
			for j := range x[i] {
				x[i][j] = float64(rng.Intn(nLevels))
			}
			if constant {
				x[i][0] = 3
			}
			y[i] = responses[rng.Intn(len(responses))]
		}
		names := []string{"a", "b", "c", "d", "e"}[:p]
		fr, err := Fit(x, y, names, Config{
			NTrees:      1 + int(trees)%8,
			MinNodeSize: 1 + int(seed%3),
			Seed:        seed,
			Workers:     1 + int(workers)%4,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := 1 + int(gridSize)%40
		for j, name := range names {
			grid, resp, err := fr.PartialDependence(name, g)
			if err != nil {
				t.Fatal(err)
			}
			_, wantGrid, err := fr.pdGrid(name, g)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, name+" grid", grid, wantGrid)
			sameBits(t, name+" response", resp, pdOracle(fr, j, grid))

			ciGrid, ciResp, lo, hi, err := fr.PartialDependenceCI(name, g, level)
			if err != nil {
				t.Fatal(err)
			}
			wantResp, wantLo, wantHi := pdCIOracle(fr, j, ciGrid, level)
			sameBits(t, name+" CI grid", ciGrid, wantGrid)
			sameBits(t, name+" CI response", ciResp, wantResp)
			sameBits(t, name+" CI lo", lo, wantLo)
			sameBits(t, name+" CI hi", hi, wantHi)
		}
	})
}
