// Package stepwise implements forward-backward stepwise linear regression
// selected by BIC — the modeling approach of Stargazer (Jia, Shaw,
// Martonosi, ISPASS 2012), the closest tool in the paper's related work
// (§2). BlackForest's evaluation uses it as the baseline the random forest
// is compared against: the paper argues RF "usually outperforms the more
// traditional classification and regression algorithms", and the
// comparison benchmarks quantify that on this repo's data.
package stepwise

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"blackforest/internal/mat"
	"blackforest/internal/stats"
)

// Model is a fitted stepwise linear regression over a selected subset of
// predictors (standardized internally).
type Model struct {
	// Names are all candidate predictors, in input order.
	Names []string
	// Selected are the indices of the retained predictors.
	Selected []int
	// Coef holds the intercept followed by one coefficient per selected
	// predictor (in Selected order), on the standardized scale.
	Coef []float64
	// BIC is the final model's Bayesian information criterion.
	BIC float64
	// TrainR2 is R² on the training data.
	TrainR2 float64

	means, sds []float64
	yMean      float64
}

// Config controls the search.
type Config struct {
	// MaxTerms caps the number of selected predictors (0 = no cap).
	MaxTerms int
	// MinImprovement is the minimum BIC decrease to accept a step
	// (default 1e-6).
	MinImprovement float64
}

// Fit runs forward selection with backward elimination passes until BIC
// stops improving.
func Fit(x [][]float64, y []float64, names []string, cfg Config) (*Model, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("stepwise: empty training set")
	}
	p := len(x[0])
	if len(y) != n {
		return nil, fmt.Errorf("stepwise: %d rows but %d responses", n, len(y))
	}
	if len(names) != p {
		return nil, fmt.Errorf("stepwise: %d names for %d predictors", len(names), p)
	}
	if cfg.MinImprovement <= 0 {
		cfg.MinImprovement = 1e-6
	}
	if cfg.MaxTerms <= 0 || cfg.MaxTerms > p {
		cfg.MaxTerms = p
	}

	m := &Model{Names: append([]string(nil), names...)}

	// Standardize columns once.
	cols := make([][]float64, p)
	m.means = make([]float64, p)
	m.sds = make([]float64, p)
	raw := make([]float64, n)
	for j := 0; j < p; j++ {
		for i := range x {
			raw[i] = x[i][j]
		}
		z, mean, sd := stats.Standardize(raw)
		cols[j] = append([]float64(nil), z...)
		m.means[j], m.sds[j] = mean, sd
	}
	m.yMean = stats.Mean(y)

	selected := []int{}
	inModel := make([]bool, p)
	bestBIC := bicOf(rssFor(cols, y, selected), n, 0)

	for {
		improved := false
		// Forward step: try adding each absent predictor.
		if len(selected) < cfg.MaxTerms {
			bestAdd, bestAddBIC := -1, bestBIC
			for j := 0; j < p; j++ {
				if inModel[j] {
					continue
				}
				trial := append(append([]int{}, selected...), j)
				b := bicOf(rssFor(cols, y, trial), n, len(trial))
				if b < bestAddBIC-cfg.MinImprovement {
					bestAdd, bestAddBIC = j, b
				}
			}
			if bestAdd >= 0 {
				selected = append(selected, bestAdd)
				inModel[bestAdd] = true
				bestBIC = bestAddBIC
				improved = true
			}
		}
		// Backward step: try dropping each present predictor.
		bestDrop, bestDropBIC := -1, bestBIC
		for k := range selected {
			trial := make([]int, 0, len(selected)-1)
			trial = append(trial, selected[:k]...)
			trial = append(trial, selected[k+1:]...)
			b := bicOf(rssFor(cols, y, trial), n, len(trial))
			if b < bestDropBIC-cfg.MinImprovement {
				bestDrop, bestDropBIC = k, b
			}
		}
		if bestDrop >= 0 {
			inModel[selected[bestDrop]] = false
			selected = append(selected[:bestDrop], selected[bestDrop+1:]...)
			bestBIC = bestDropBIC
			improved = true
		}
		if !improved {
			break
		}
	}

	sort.Ints(selected)
	m.Selected = selected
	m.BIC = bestBIC

	coef, rss, err := fitOLS(cols, y, selected)
	if err != nil {
		return nil, err
	}
	m.Coef = coef
	tss := stats.SumSquaredDev(y)
	if tss > 0 {
		m.TrainR2 = 1 - rss/tss
	}
	return m, nil
}

// rssFor returns the residual sum of squares of the OLS fit on the subset
// (math.Inf on singular fits, which the search then avoids).
func rssFor(cols [][]float64, y []float64, subset []int) float64 {
	_, rss, err := fitOLS(cols, y, subset)
	if err != nil {
		return math.Inf(1)
	}
	return rss
}

// fitOLS solves the least-squares fit of y on the subset plus intercept.
func fitOLS(cols [][]float64, y []float64, subset []int) (coef []float64, rss float64, err error) {
	n := len(y)
	design := mat.New(n, len(subset)+1)
	for i := 0; i < n; i++ {
		design.Set(i, 0, 1)
		for k, j := range subset {
			design.Set(i, k+1, cols[j][i])
		}
	}
	coef, err = mat.SolveRidge(design, y, 1e-10)
	if err != nil {
		return nil, 0, err
	}
	pred, err := design.MulVec(coef)
	if err != nil {
		return nil, 0, err
	}
	for i := range y {
		d := y[i] - pred[i]
		rss += d * d
	}
	return coef, rss, nil
}

// bicOf is the gaussian-likelihood BIC: n·ln(RSS/n) + k·ln(n), with k
// counting the intercept and slope terms.
func bicOf(rss float64, n, terms int) float64 {
	if rss <= 0 {
		rss = 1e-12
	}
	return float64(n)*math.Log(rss/float64(n)) + float64(terms+1)*math.Log(float64(n))
}

// Predict returns the model response for one raw (unstandardized)
// observation in the full predictor order.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != len(m.Names) {
		panic(fmt.Sprintf("stepwise: predicting with %d features, model has %d", len(x), len(m.Names)))
	}
	out := m.Coef[0]
	for k, j := range m.Selected {
		out += m.Coef[k+1] * (x[j] - m.means[j]) / m.sds[j]
	}
	return out
}

// PredictAll returns predictions for each row of xs.
func (m *Model) PredictAll(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = m.Predict(x)
	}
	return out
}

// RSquared returns R² on the given data.
func (m *Model) RSquared(x [][]float64, y []float64) float64 {
	return stats.RSquared(m.PredictAll(x), y)
}
