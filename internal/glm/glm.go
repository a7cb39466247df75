// Package glm implements generalized linear models: ordinary least squares
// for the gaussian family and iteratively reweighted least squares (IRLS)
// for poisson and gamma families with log links. BlackForest uses these as
// the "simple cases" counter models of §4.2 ("built as generalized linear
// models because of their simplicity"), with residual deviance as the
// fit-quality measure quoted in the paper (Fig. 5c discussion).
package glm

import (
	"errors"
	"fmt"
	"math"

	"blackforest/internal/mat"
	"blackforest/internal/stats"
)

// Family selects the response distribution and link function.
type Family int

const (
	// Gaussian with identity link: ordinary least squares.
	Gaussian Family = iota
	// Poisson with log link: for nonnegative count-like responses
	// (most raw performance counters).
	Poisson
	// GammaLog: gamma family with log link, for positive continuous
	// right-skewed responses (throughputs, times).
	GammaLog
)

// String returns the family's R-style name.
func (f Family) String() string {
	switch f {
	case Gaussian:
		return "gaussian"
	case Poisson:
		return "poisson(log)"
	case GammaLog:
		return "Gamma(log)"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Model is a fitted GLM. The first coefficient is the intercept.
type Model struct {
	Family     Family
	Names      []string // predictor names (excluding intercept)
	Coef       []float64
	Deviance   float64 // residual deviance
	NullDev    float64 // deviance of the intercept-only model
	Iterations int
}

const (
	irlsMaxIter = 50
	irlsTol     = 1e-9
)

// Fit fits a GLM of y on x (rows are observations) with an intercept.
func Fit(x [][]float64, y []float64, names []string, family Family) (*Model, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("glm: empty training set")
	}
	p := len(x[0])
	if len(y) != n {
		return nil, fmt.Errorf("glm: %d rows but %d responses", n, len(y))
	}
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("glm: row %d has %d values, want %d", i, len(row), p)
		}
	}
	if len(names) != p {
		return nil, fmt.Errorf("glm: %d names for %d predictors", len(names), p)
	}
	if n < p+1 {
		return nil, fmt.Errorf("glm: %d observations cannot identify %d coefficients", n, p+1)
	}

	// Design matrix with intercept column.
	design := mat.New(n, p+1)
	for i := 0; i < n; i++ {
		design.Set(i, 0, 1)
		for j := 0; j < p; j++ {
			design.Set(i, j+1, x[i][j])
		}
	}

	m := &Model{Family: family, Names: append([]string(nil), names...)}
	var err error
	switch family {
	case Gaussian:
		m.Coef, err = solveOLS(design, y)
		m.Iterations = 1
	case Poisson, GammaLog:
		m.Coef, m.Iterations, err = solveIRLS(design, y, family)
	default:
		return nil, fmt.Errorf("glm: unknown family %v", family)
	}
	if err != nil {
		return nil, err
	}

	m.Deviance = m.devianceOf(x, y)
	m.NullDev = nullDeviance(y, family)
	return m, nil
}

func solveOLS(design *mat.Matrix, y []float64) ([]float64, error) {
	coef, err := mat.SolveLeastSquares(design, y)
	if err == mat.ErrRankDeficient {
		// Fall back to a tiny ridge penalty for collinear designs.
		return mat.SolveRidge(design, y, 1e-8)
	}
	return coef, err
}

// solveIRLS runs iteratively reweighted least squares for log-link families.
func solveIRLS(design *mat.Matrix, y []float64, family Family) ([]float64, int, error) {
	n, pc := design.Rows(), design.Cols()
	for _, v := range y {
		if family == Poisson && v < 0 {
			return nil, 0, errors.New("glm: poisson response must be nonnegative")
		}
		if family == GammaLog && v <= 0 {
			return nil, 0, errors.New("glm: gamma response must be positive")
		}
	}

	// Initialize eta from log(y) clamped away from log(0).
	coef := make([]float64, pc)
	eta := make([]float64, n)
	for i, v := range y {
		if v < 1e-8 {
			v = 1e-8
		}
		eta[i] = math.Log(v)
	}

	wx := mat.New(n, pc)
	wz := make([]float64, n)
	var prevDev float64 = math.Inf(1)
	for iter := 1; iter <= irlsMaxIter; iter++ {
		// Working response z = eta + (y-mu)/mu (log link: dmu/deta = mu)
		// and weights: poisson w = mu, gamma(log) w = 1.
		for i := 0; i < n; i++ {
			mu := math.Exp(eta[i])
			if mu < 1e-10 {
				mu = 1e-10
			}
			z := eta[i] + (y[i]-mu)/mu
			var w float64
			switch family {
			case Poisson:
				w = mu
			case GammaLog:
				w = 1
			}
			sw := math.Sqrt(w)
			wz[i] = sw * z
			for j := 0; j < pc; j++ {
				wx.Set(i, j, sw*design.At(i, j))
			}
		}
		var err error
		coef, err = mat.SolveRidge(wx, wz, 1e-10)
		if err != nil {
			return nil, iter, fmt.Errorf("glm: IRLS solve failed: %w", err)
		}
		newEta, err := design.MulVec(coef)
		if err != nil {
			return nil, iter, err
		}
		copy(eta, newEta)

		dev := devianceEta(eta, y, family)
		if math.Abs(prevDev-dev) < irlsTol*(math.Abs(dev)+0.1) {
			return coef, iter, nil
		}
		prevDev = dev
	}
	return coef, irlsMaxIter, nil
}

// Predict returns the fitted mean response for a single observation.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != len(m.Names) {
		panic(fmt.Sprintf("glm: predicting with %d features, model has %d", len(x), len(m.Names)))
	}
	eta := m.Coef[0]
	for j, v := range x {
		eta += m.Coef[j+1] * v
	}
	switch m.Family {
	case Gaussian:
		return eta
	default:
		return math.Exp(eta)
	}
}

// PredictAll returns predictions for each row of xs.
func (m *Model) PredictAll(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = m.Predict(x)
	}
	return out
}

// RSquared returns the coefficient of determination on the given data.
func (m *Model) RSquared(x [][]float64, y []float64) float64 {
	return stats.RSquared(m.PredictAll(x), y)
}

// devianceOf computes the residual deviance on (x, y).
func (m *Model) devianceOf(x [][]float64, y []float64) float64 {
	var dev float64
	for i, row := range x {
		mu := m.Predict(row)
		dev += unitDeviance(y[i], mu, m.Family)
	}
	return dev
}

func devianceEta(eta, y []float64, family Family) float64 {
	var dev float64
	for i := range y {
		dev += unitDeviance(y[i], math.Exp(eta[i]), family)
	}
	return dev
}

// unitDeviance is the per-observation deviance contribution.
func unitDeviance(y, mu float64, family Family) float64 {
	switch family {
	case Gaussian:
		d := y - mu
		return d * d
	case Poisson:
		if mu < 1e-10 {
			mu = 1e-10
		}
		if y <= 0 {
			return 2 * mu
		}
		return 2 * (y*math.Log(y/mu) - (y - mu))
	case GammaLog:
		if mu < 1e-10 {
			mu = 1e-10
		}
		if y <= 0 {
			y = 1e-10
		}
		return 2 * (-math.Log(y/mu) + (y-mu)/mu)
	default:
		return 0
	}
}

// nullDeviance is the deviance of the intercept-only model.
func nullDeviance(y []float64, family Family) float64 {
	mu := stats.Mean(y)
	var dev float64
	for _, v := range y {
		dev += unitDeviance(v, mu, family)
	}
	return dev
}

// String summarizes the model like R's print.glm.
func (m *Model) String() string {
	s := fmt.Sprintf("glm(family=%v): intercept=%.4g", m.Family, m.Coef[0])
	for j, name := range m.Names {
		s += fmt.Sprintf(", %s=%.4g", name, m.Coef[j+1])
	}
	s += fmt.Sprintf(" [residual deviance %.4g, null %.4g]", m.Deviance, m.NullDev)
	return s
}
