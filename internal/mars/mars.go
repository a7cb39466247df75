// Package mars implements Multivariate Adaptive Regression Splines
// (Friedman, 1991), the non-parametric regression BlackForest uses to model
// performance counters in terms of problem/hardware characteristics when
// linear models are inadequate (§4.1.3, §6.1.2). The implementation follows
// the classical two-stage algorithm: a forward pass greedily adding mirror
// pairs of hinge basis functions (optionally interacting with existing
// terms), then a backward pruning pass selecting the subset minimizing
// generalized cross-validation (GCV) — the same algorithm as R's earth.
package mars

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"blackforest/internal/mat"
	"blackforest/internal/stats"
)

// Config controls MARS fitting.
type Config struct {
	// MaxTerms caps the number of basis terms (including the intercept)
	// after the forward pass. earth's default is min(21, 2·p+1).
	MaxTerms int
	// MaxDegree is the maximum interaction degree (1 = additive model,
	// 2 allows pairwise hinge products). Default 2.
	MaxDegree int
	// MaxKnots caps candidate knots per feature (quantile-spaced).
	// Default 20.
	MaxKnots int
	// Penalty is the GCV cost per knot; earth uses 2 for additive models
	// and 3 when interactions are allowed. 0 selects that default.
	Penalty float64
}

// DefaultConfig returns earth-like defaults.
func DefaultConfig() Config {
	return Config{MaxDegree: 2, MaxKnots: 20}
}

// hinge is one factor max(0, ±(x_j − knot)) of a basis term.
type hinge struct {
	feature int
	knot    float64
	// pos selects max(0, x−knot) when true, max(0, knot−x) otherwise.
	pos bool
}

func (h hinge) eval(x []float64) float64 {
	d := x[h.feature] - h.knot
	if !h.pos {
		d = -d
	}
	if d < 0 {
		return 0
	}
	return d
}

// term is a product of hinges; the empty product is the intercept.
type term struct {
	factors []hinge
}

func (t term) eval(x []float64) float64 {
	v := 1.0
	for _, h := range t.factors {
		v *= h.eval(x)
		if v == 0 {
			return 0
		}
	}
	return v
}

// usesFeature reports whether the term already involves feature j.
func (t term) usesFeature(j int) bool {
	for _, h := range t.factors {
		if h.feature == j {
			return true
		}
	}
	return false
}

// Model is a fitted MARS model: ŷ(x) = Σ coef_i · B_i(x).
type Model struct {
	Names []string
	terms []term
	Coef  []float64
	// GCV is the generalized cross-validation score of the final model.
	GCV float64
	// RSS is the residual sum of squares on the training data.
	RSS float64
	// TrainR2 is R² on the training data.
	TrainR2 float64
}

// Fit fits a MARS model of y on x (rows are observations).
func Fit(x [][]float64, y []float64, names []string, cfg Config) (*Model, error) {
	return fit(x, y, names, cfg, nil)
}

// fit is Fit with a probe on every candidate fit of the two passes.
func fit(x [][]float64, y []float64, names []string, cfg Config, probe probe) (*Model, error) {
	cfg, err := prepare(x, y, names, cfg)
	if err != nil {
		return nil, err
	}
	knots := candidateKnots(x, cfg.MaxKnots)
	terms := forwardPass(x, y, knots, cfg, probe)
	terms = backwardPass(x, y, terms, cfg, probe)

	s := newSolver(y)
	rss, err := s.fit(columns(x, terms))
	if err != nil {
		return nil, err
	}
	return newModel(names, terms, append([]float64(nil), s.coef...), rss, y, cfg), nil
}

// prepare validates the training set and fills in cfg's defaults.
func prepare(x [][]float64, y []float64, names []string, cfg Config) (Config, error) {
	n := len(x)
	if n == 0 {
		return cfg, errors.New("mars: empty training set")
	}
	p := len(x[0])
	if len(y) != n {
		return cfg, fmt.Errorf("mars: %d rows but %d responses", n, len(y))
	}
	for i, row := range x {
		if len(row) != p {
			return cfg, fmt.Errorf("mars: row %d has %d values, want %d", i, len(row), p)
		}
	}
	if len(names) != p {
		return cfg, fmt.Errorf("mars: %d names for %d predictors", len(names), p)
	}
	if cfg.MaxTerms <= 0 {
		// earth's default: min(200, max(20, 2p)) + 1.
		cfg.MaxTerms = 2 * p
		if cfg.MaxTerms < 20 {
			cfg.MaxTerms = 20
		}
		if cfg.MaxTerms > 200 {
			cfg.MaxTerms = 200
		}
		cfg.MaxTerms++
	}
	if cfg.MaxDegree <= 0 {
		cfg.MaxDegree = 2
	}
	if cfg.MaxKnots <= 0 {
		cfg.MaxKnots = 20
	}
	if cfg.Penalty == 0 {
		if cfg.MaxDegree > 1 {
			cfg.Penalty = 3
		} else {
			cfg.Penalty = 2
		}
	}
	return cfg, nil
}

// newModel assembles the fitted model from its final basis and fit.
func newModel(names []string, terms []term, coef []float64, rss float64, y []float64, cfg Config) *Model {
	m := &Model{
		Names: append([]string(nil), names...),
		terms: terms,
		Coef:  coef,
		RSS:   rss,
		GCV:   gcv(rss, len(y), len(terms), cfg.Penalty),
	}
	if tss := stats.SumSquaredDev(y); tss > 0 {
		m.TrainR2 = 1 - rss/tss
	}
	return m
}

// candidateKnots returns quantile-spaced knot candidates per feature,
// excluding the extremes (a hinge at the min or max is degenerate).
func candidateKnots(x [][]float64, maxKnots int) [][]float64 {
	p := len(x[0])
	out := make([][]float64, p)
	col := make([]float64, len(x))
	for j := 0; j < p; j++ {
		for i, row := range x {
			col[i] = row[j]
		}
		sorted := append([]float64(nil), col...)
		sort.Float64s(sorted)
		uniq := sorted[:0]
		for i, v := range sorted {
			if i == 0 || v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		if len(uniq) <= 2 {
			continue // constant or binary feature: no interior knots
		}
		interior := uniq[1 : len(uniq)-1]
		if len(interior) <= maxKnots {
			out[j] = append([]float64(nil), interior...)
			continue
		}
		ks := make([]float64, maxKnots)
		for k := 0; k < maxKnots; k++ {
			pos := float64(k) * float64(len(interior)-1) / float64(maxKnots-1)
			ks[k] = interior[int(pos)]
		}
		out[j] = ks
	}
	return out
}

// A probe observes every candidate fit of the forward and backward passes:
// the trial basis, and its RSS or the error that ruled it out. Fit passes
// nil; the differential tests check each candidate against a full refit.
type probe func(trial []term, rss float64, err error)

// forwardPass greedily adds mirror hinge pairs minimizing RSS.
//
// Every candidate of a step shares the current basis as its first T
// columns, so each step factors those once (on the candidate's own row
// count) and a candidate only pushes its two hinge columns.
func forwardPass(x [][]float64, y []float64, knots [][]float64, cfg Config, probe probe) []term {
	terms := []term{{}} // intercept
	cols := columns(x, terms)
	s := newSolver(y)
	bestRSS, err := s.fit(cols)
	if err != nil {
		return terms
	}

	n := len(x)
	pos, neg := make([]float64, n), make([]float64, n)
	var trial [][]float64
	for len(terms)+1 < cfg.MaxTerms {
		type candidate struct {
			parent int
			h      hinge
		}
		var best candidate
		bestGain := 0.0
		found := false

		nt := len(terms)
		s.reset(nt + 2)
		for _, c := range cols {
			s.push(c)
		}
		s.commit()
		trial = append(append(trial[:0], cols...), pos, neg)
		for pi, parent := range terms {
			if len(parent.factors) >= cfg.MaxDegree {
				continue
			}
			for j, ks := range knots {
				if parent.usesFeature(j) {
					continue
				}
				for _, k := range ks {
					hp := hinge{feature: j, knot: k, pos: true}
					hn := hinge{feature: j, knot: k, pos: false}
					childColumn(pos, cols[pi], x, hp)
					childColumn(neg, cols[pi], x, hn)
					s.qr.Truncate(nt)
					s.push(pos)
					s.push(neg)
					rss, err := s.solve(trial)
					if probe != nil {
						probe(append(terms[:nt:nt], extend(parent, hp), extend(parent, hn)), rss, err)
					}
					if err != nil {
						continue
					}
					if gain := bestRSS - rss; gain > bestGain {
						bestGain = gain
						best = candidate{parent: pi, h: hp}
						found = true
					}
				}
			}
		}
		// Stop when the best addition explains under 0.01% of remaining RSS.
		if !found || bestGain < 1e-4*bestRSS {
			break
		}
		parent := terms[best.parent]
		hn := hinge{feature: best.h.feature, knot: best.h.knot, pos: false}
		terms = append(terms, extend(parent, best.h), extend(parent, hn))
		cols = append(cols, columns(x, terms[nt:])...)
		bestRSS -= bestGain
		if bestRSS <= 1e-12 {
			break
		}
	}
	return terms
}

func extend(parent term, h hinge) term {
	f := make([]hinge, len(parent.factors)+1)
	copy(f, parent.factors)
	f[len(parent.factors)] = h
	return term{factors: f}
}

// columns evaluates every term on every row: the design matrix, by column.
func columns(x [][]float64, terms []term) [][]float64 {
	cols := make([][]float64, len(terms))
	for j, t := range terms {
		cols[j] = make([]float64, len(x))
		for i, row := range x {
			cols[j][i] = t.eval(row)
		}
	}
	return cols
}

// childColumn writes into dst the column of extend(parent, h) from the
// parent's column, with the same product and the same early exit to +0 as
// term.eval.
func childColumn(dst, parent []float64, x [][]float64, h hinge) {
	for i, p := range parent {
		v := 0.0
		if p != 0 {
			if v = p * h.eval(x[i]); v == 0 {
				v = 0
			}
		}
		dst[i] = v
	}
}

// backwardPass prunes terms one at a time, keeping the subset with the best
// (lowest) GCV seen. The intercept is never removed.
//
// The trial that drops term i shares its first i columns with the trials
// that drop a later term, so a step factors them once and each trial only
// re-pushes the columns after i, shifted one position left.
func backwardPass(x [][]float64, y []float64, terms []term, cfg Config, probe probe) []term {
	n := len(x)
	best := append([]term(nil), terms...)
	cols := columns(x, terms)
	s := newSolver(y)
	rss, err := s.fit(cols)
	if err != nil {
		return best
	}
	bestGCV := gcv(rss, n, len(terms), cfg.Penalty)

	current := append([]term(nil), terms...)
	var trial [][]float64
	for len(current) > 1 {
		removeIdx := -1
		removeGCV := math.Inf(1)
		nt := len(current)
		s.reset(nt - 1)
		s.push(cols[0])
		s.commit()
		for i := 1; i < nt; i++ { // skip intercept at 0
			for _, c := range cols[i+1:] {
				s.push(c)
			}
			trial = append(append(trial[:0], cols[:i]...), cols[i+1:]...)
			rss, err := s.solve(trial)
			if probe != nil {
				probe(append(append([]term(nil), current[:i]...), current[i+1:]...), rss, err)
			}
			if err == nil {
				if g := gcv(rss, n, nt-1, cfg.Penalty); g < removeGCV {
					removeGCV = g
					removeIdx = i
				}
			}
			if i+1 < nt {
				s.qr.Truncate(i)
				s.push(cols[i])
				s.commit()
			}
		}
		if removeIdx < 0 {
			break
		}
		current = append(current[:removeIdx], current[removeIdx+1:]...)
		cols = append(cols[:removeIdx], cols[removeIdx+1:]...)
		if removeGCV < bestGCV {
			bestGCV = removeGCV
			best = append([]term(nil), current...)
		}
	}
	return best
}

// ridge is the penalty λ of every MARS least-squares fit.
const ridge = 1e-10

// solver fits y on a basis of evaluated term columns by least squares with
// ridge penalty λ: a column-incremental QR of the augmented system
// [B; √λ·I]·c ≈ [y; 0]. A fit of n columns has m+n rows and column j
// carries √λ in row m+j, so it factors exactly the matrix mat.SolveRidge
// builds for the design matrix B, column for column, and its coefficients
// and RSS are bit-identical to SolveRidge followed by B·c. Columns before
// the last commit are a prefix shared by every solve until the next reset
// or truncation below it.
type solver struct {
	y    []float64
	sq   float64 // √λ
	qr   mat.QR
	col  []float64 // scratch augmented column
	qty  []float64 // [y; 0] with the committed reflectors applied
	done int       // committed columns
	ok   bool      // the committed columns are full rank
	rhs  []float64 // scratch right-hand side of a solve
	coef []float64 // coefficients of the last successful solve
}

func newSolver(y []float64) *solver {
	return &solver{y: y, sq: math.Sqrt(ridge)}
}

// reset starts an empty factorization for a basis of n columns.
func (s *solver) reset(n int) {
	rows := len(s.y) + n
	s.qr.Reset(rows)
	s.col = resize(s.col, rows)
	s.rhs = resize(s.rhs, rows)
	s.qty = resize(s.qty, rows)
	copy(s.qty, s.y)
	clear(s.qty[len(s.y):])
	s.done, s.ok = 0, true
}

// push appends basis column c (one value per training row) as the next
// column j, with √λ in row m+j.
func (s *solver) push(c []float64) {
	m := len(s.y)
	copy(s.col, c)
	clear(s.col[m:])
	s.col[m+s.qr.Cols()] = s.sq
	s.qr.Push(s.col)
}

// commit makes the columns pushed since the last commit part of the shared
// prefix: it checks their rank once and applies their reflectors to qty.
func (s *solver) commit() {
	s.ok = s.ok && s.qr.FullRankFrom(s.done)
	s.qr.ApplyQT(s.qty, s.done)
	s.done = s.qr.Cols()
}

// solve finishes the fit of the pushed basis, whose evaluated columns are
// cols, leaving the coefficients in s.coef and returning the RSS. The RSS
// sums the same products in the same order as the design matrix's MulVec.
func (s *solver) solve(cols [][]float64) (float64, error) {
	if !s.ok {
		return 0, mat.ErrRankDeficient
	}
	s.coef = resize(s.coef, len(cols))
	copy(s.rhs, s.qty)
	if err := s.qr.SolveFrom(s.rhs, s.done, s.coef); err != nil {
		return 0, err
	}
	var rss float64
	for i, yi := range s.y {
		var p float64
		for j, c := range cols {
			p += c[i] * s.coef[j]
		}
		d := yi - p
		rss += d * d
	}
	return rss, nil
}

// fit factors and solves the basis cols from scratch.
func (s *solver) fit(cols [][]float64) (float64, error) {
	s.reset(len(cols))
	for _, c := range cols {
		s.push(c)
	}
	s.commit()
	return s.solve(cols)
}

// resize returns b with length n, reusing its storage when it fits.
func resize(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// gcv is Friedman's generalized cross-validation criterion.
func gcv(rss float64, n, nTerms int, penalty float64) float64 {
	c := float64(nTerms) + penalty*float64(nTerms-1)/2
	denom := 1 - c/float64(n)
	if denom <= 0 {
		return math.Inf(1)
	}
	return rss / float64(n) / (denom * denom)
}

// Predict returns the model response for the feature vector x.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != len(m.Names) {
		panic(fmt.Sprintf("mars: predicting with %d features, model has %d", len(x), len(m.Names)))
	}
	var s float64
	for i, t := range m.terms {
		s += m.Coef[i] * t.eval(x)
	}
	return s
}

// PredictAll returns predictions for each row of xs.
func (m *Model) PredictAll(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = m.Predict(x)
	}
	return out
}

// NumTerms returns the number of basis terms including the intercept.
func (m *Model) NumTerms() int { return len(m.terms) }

// RSquared returns R² on the given data.
func (m *Model) RSquared(x [][]float64, y []float64) float64 {
	return stats.RSquared(m.PredictAll(x), y)
}

// String renders the model equation like earth's summary.
func (m *Model) String() string {
	var b strings.Builder
	b.WriteString("mars: y =")
	for i, t := range m.terms {
		if i > 0 {
			b.WriteString(" +")
		}
		fmt.Fprintf(&b, " %.4g", m.Coef[i])
		for _, h := range t.factors {
			name := m.Names[h.feature]
			if h.pos {
				fmt.Fprintf(&b, "·h(%s−%.4g)", name, h.knot)
			} else {
				fmt.Fprintf(&b, "·h(%.4g−%s)", h.knot, name)
			}
		}
	}
	fmt.Fprintf(&b, "  [terms=%d GCV=%.4g R²=%.3f]", len(m.terms), m.GCV, m.TrainR2)
	return b.String()
}
