// Package pca implements principal component analysis with factor-loading
// interpretation, mirroring the R prcomp step of the paper's "refinement
// with PCA" stage (§4.2): reducing correlated counters to a few components
// and reading each variable's contribution off its loadings. The loadings
// are reported unrotated; the paper's varimax rotation is not applied.
package pca

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"blackforest/internal/mat"
	"blackforest/internal/stats"
)

// Result holds a fitted PCA.
type Result struct {
	// Names are the input variable names, in column order.
	Names []string
	// Means and SDs are the standardization parameters applied per column.
	Means []float64
	SDs   []float64
	// Loadings is the p×p matrix of eigenvectors (columns are components,
	// sorted by descending eigenvalue). Loadings[i][j] is variable i's
	// loading on component j.
	Loadings *mat.Matrix
	// Eigenvalues are the variances along each component, descending.
	Eigenvalues []float64
	// Scores is the n×p matrix of observations projected onto components.
	Scores *mat.Matrix
}

// Fit runs PCA on the design matrix x (rows are observations, columns are
// variables named by names). Columns are standardized to zero mean and unit
// variance first, so PCA operates on the correlation matrix — appropriate
// for counters with wildly different scales.
func Fit(x [][]float64, names []string) (*Result, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("pca: empty input")
	}
	p := len(x[0])
	if p == 0 {
		return nil, errors.New("pca: no variables")
	}
	if len(names) != p {
		return nil, fmt.Errorf("pca: %d names for %d variables", len(names), p)
	}
	if n < 2 {
		return nil, errors.New("pca: need at least 2 observations")
	}

	// Standardize columns.
	z := mat.New(n, p)
	means := make([]float64, p)
	sds := make([]float64, p)
	col := make([]float64, n)
	for j := 0; j < p; j++ {
		for i := 0; i < n; i++ {
			col[i] = x[i][j]
		}
		zc, m, s := stats.Standardize(col)
		means[j], sds[j] = m, s
		for i := 0; i < n; i++ {
			z.Set(i, j, zc[i])
		}
	}

	// Correlation matrix = ZᵀZ/(n−1).
	zt := z.T()
	c, err := zt.Mul(z)
	if err != nil {
		return nil, err
	}
	c = c.Scale(1 / float64(n-1))

	eig, err := mat.SymEigen(c)
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition: %w", err)
	}
	// Numerical noise can make tiny eigenvalues slightly negative.
	for i, v := range eig.Values {
		if v < 0 {
			eig.Values[i] = 0
		}
	}

	scores, err := z.Mul(eig.Vectors)
	if err != nil {
		return nil, err
	}

	return &Result{
		Names:       append([]string(nil), names...),
		Means:       means,
		SDs:         sds,
		Loadings:    eig.Vectors,
		Eigenvalues: eig.Values,
		Scores:      scores,
	}, nil
}

// ExplainedVariance returns each component's share of total variance.
func (r *Result) ExplainedVariance() []float64 {
	var total float64
	for _, v := range r.Eigenvalues {
		total += v
	}
	out := make([]float64, len(r.Eigenvalues))
	if total == 0 {
		return out
	}
	for i, v := range r.Eigenvalues {
		out[i] = v / total
	}
	return out
}

// ComponentsFor returns the smallest k such that the first k components
// explain at least the given fraction of total variance (e.g. 0.96).
func (r *Result) ComponentsFor(fraction float64) int {
	var cum float64
	for i, share := range r.ExplainedVariance() {
		cum += share
		if cum >= fraction {
			return i + 1
		}
	}
	return len(r.Eigenvalues)
}

// Loading is one variable's loading on one component.
type Loading struct {
	Variable string
	Value    float64
}

// ComponentLoadings returns variable loadings for component j, sorted by
// descending absolute value — the paper's factor-loadings interpretation
// aid ("positively and strongly connected to PC2...").
func (r *Result) ComponentLoadings(j int) ([]Loading, error) {
	if j < 0 || j >= len(r.Eigenvalues) {
		return nil, fmt.Errorf("pca: component %d out of range [0,%d)", j, len(r.Eigenvalues))
	}
	out := make([]Loading, len(r.Names))
	for i, name := range r.Names {
		out[i] = Loading{Variable: name, Value: r.Loadings.At(i, j)}
	}
	sort.Slice(out, func(a, b int) bool {
		av, bv := math.Abs(out[a].Value), math.Abs(out[b].Value)
		if av != bv {
			return av > bv
		}
		return out[a].Variable < out[b].Variable
	})
	return out, nil
}
