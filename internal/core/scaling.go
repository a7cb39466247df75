package core

import (
	"errors"
	"fmt"
	"math"

	"blackforest/internal/dataset"
	"blackforest/internal/glm"
	"blackforest/internal/mars"
	"blackforest/internal/stats"
)

// ModelKind selects how counters are modeled in terms of problem
// characteristics (§4.2 results interpretation: "unless confronted with
// trivial cases … for which (generalized) linear models are adequate, we
// use MARS regressions").
type ModelKind int

const (
	// AutoModel fits a GLM first and falls back to MARS when the linear
	// fit is poor.
	AutoModel ModelKind = iota
	// GLMModel forces generalized linear models (paper's matrix-multiply
	// counter models).
	GLMModel
	// MARSModel forces MARS (paper's Needleman-Wunsch counter models,
	// built with R's earth).
	MARSModel
)

// String returns the kind's name.
func (k ModelKind) String() string {
	switch k {
	case GLMModel:
		return "glm"
	case MARSModel:
		return "mars"
	default:
		return "auto"
	}
}

// glmFallbackR2 is the training-R² threshold below which AutoModel
// switches from GLM to MARS — the paper's rule: GLMs only for the trivial
// cases they fit essentially perfectly, MARS for everything else.
const glmFallbackR2 = 0.995

// CounterModel predicts one counter's value from problem characteristics.
type CounterModel struct {
	Counter string
	// Kind is "glm" or "mars" — whichever was selected.
	Kind string
	// TrainR2 is R² of the model on its training data.
	TrainR2 float64
	// ResidualDeviance is the GLM residual deviance (0 for MARS) — the
	// fit-quality measure the paper quotes for Fig. 5(c).
	ResidualDeviance float64

	chars []string
	// scales normalizes each characteristic before the polynomial basis
	// expansion, keeping the GLM design well-conditioned (raw sizes cubed
	// reach 10⁹⁺).
	scales []float64
	g      *glm.Model
	m      *mars.Model
}

// Predict returns the modeled counter value for the characteristics,
// given in the model's characteristic order.
func (cm *CounterModel) Predict(chars []float64) float64 {
	if cm.m != nil {
		return cm.m.Predict(chars)
	}
	return cm.g.Predict(polyExpandRow(cm.normalize(chars)))
}

// normalize scales a characteristic vector by the training maxima.
func (cm *CounterModel) normalize(chars []float64) []float64 {
	out := make([]float64, len(chars))
	for i, c := range chars {
		out[i] = c / cm.scales[i]
	}
	return out
}

// polyDegree is the polynomial basis degree for GLM counter models: raw
// counters grow polynomially in problem size (MM: O(n³) work, O(n²) data),
// so a cubic basis in each characteristic covers the trivial cases.
const polyDegree = 3

// polyExpandRow builds the GLM basis [c, c², c³, log(1+c), 1/(ε+c)] per
// (normalized) characteristic. The rational term captures throughput-style
// counters, which behave like work/time ratios and peak mid-range.
func polyExpandRow(chars []float64) []float64 {
	out := make([]float64, 0, len(chars)*(polyDegree+2))
	for _, c := range chars {
		p := c
		for d := 0; d < polyDegree; d++ {
			out = append(out, p)
			p *= c
		}
		out = append(out, math.Log1p(math.Abs(c)))
		out = append(out, 1/(0.05+math.Abs(c)))
	}
	return out
}

// polyExpandNames names the expanded basis columns.
func polyExpandNames(chars []string) []string {
	var out []string
	for _, c := range chars {
		for d := 1; d <= polyDegree; d++ {
			out = append(out, fmt.Sprintf("%s^%d", c, d))
		}
		out = append(out, "log1p("+c+")")
		out = append(out, "inv("+c+")")
	}
	return out
}

// FitCounterModel models one counter column in terms of the characteristic
// columns of the frame.
func FitCounterModel(frame *dataset.Frame, counter string, chars []string, kind ModelKind) (*CounterModel, error) {
	x, err := frame.Matrix(chars)
	if err != nil {
		return nil, err
	}
	y, err := frame.Column(counter)
	if err != nil {
		return nil, err
	}

	cm := &CounterModel{Counter: counter, chars: append([]string(nil), chars...)}
	cm.scales = make([]float64, len(chars))
	for j := range chars {
		for _, row := range x {
			if v := math.Abs(row[j]); v > cm.scales[j] {
				cm.scales[j] = v
			}
		}
		if cm.scales[j] == 0 {
			cm.scales[j] = 1
		}
	}

	fitGLM := func() error {
		xg := make([][]float64, len(x))
		for i, row := range x {
			xg[i] = polyExpandRow(cm.normalize(row))
		}
		g, err := glm.Fit(xg, y, polyExpandNames(chars), glm.Gaussian)
		if err != nil {
			return err
		}
		cm.g = g
		cm.Kind = "glm"
		cm.TrainR2 = g.RSquared(xg, y)
		cm.ResidualDeviance = g.Deviance
		return nil
	}
	fitMARS := func() error {
		m, err := mars.Fit(x, y, chars, mars.DefaultConfig())
		if err != nil {
			return err
		}
		cm.m = m
		cm.g = nil
		cm.Kind = "mars"
		cm.TrainR2 = m.TrainR2
		cm.ResidualDeviance = 0
		return nil
	}

	switch kind {
	case GLMModel:
		if err := fitGLM(); err != nil {
			return nil, fmt.Errorf("core: GLM for %s: %w", counter, err)
		}
	case MARSModel:
		if err := fitMARS(); err != nil {
			return nil, fmt.Errorf("core: MARS for %s: %w", counter, err)
		}
	default:
		if err := fitGLM(); err != nil || cm.TrainR2 < glmFallbackR2 {
			if merr := fitMARS(); merr != nil {
				if err != nil {
					return nil, fmt.Errorf("core: modeling %s: glm: %v; mars: %w", counter, err, merr)
				}
				// Keep the GLM if MARS fails but GLM fitted.
			}
		}
	}
	return cm, nil
}

// ProblemScaler predicts execution time for unseen problem characteristics
// (§6.1): a reduced forest over the top-k counters plus characteristics,
// and per-counter models that generate counter values from characteristics
// alone.
type ProblemScaler struct {
	// Reduced is the top-k analysis whose forest makes the predictions.
	Reduced *Analysis
	// CharNames are the problem characteristics (model inputs).
	CharNames []string
	// Models maps each retained counter to its characteristics model.
	Models map[string]*CounterModel
	// Degradation, when non-nil, discloses that the training frame came
	// from an incomplete collection and how it was repaired. It does not
	// participate in prediction.
	Degradation *Degradation
}

// NewProblemScaler builds the scaler from a full analysis: it reduces to
// the top-k predictors, then models every retained counter in terms of the
// frame's problem characteristics.
func NewProblemScaler(a *Analysis, k int, kind ModelKind) (*ProblemScaler, error) {
	var chars []string
	for _, n := range a.Predictors {
		if isCharacteristic(n) {
			chars = append(chars, n)
		}
	}
	if len(chars) == 0 {
		return nil, errors.New("core: frame has no problem-characteristic columns")
	}

	// Select distinct top predictors (collapsing perfectly correlated
	// counter families) and refit the forest on them.
	vars := a.TopDistinctPredictors(k, 0.999)
	reduced, err := AnalyzeWithPredictors(a.Frame, vars, a.cfg)
	if err != nil {
		return nil, err
	}
	ps := &ProblemScaler{
		Reduced:   reduced,
		CharNames: chars,
		Models:    make(map[string]*CounterModel),
	}
	for _, name := range reduced.Predictors {
		if isCharacteristic(name) {
			continue
		}
		cm, err := FitCounterModel(a.Train, name, chars, kind)
		if err != nil {
			return nil, err
		}
		ps.Models[name] = cm
	}
	return ps, nil
}

// PredictTime predicts the execution time for the given problem
// characteristics: retained counters are generated from their models, then
// the reduced forest maps the assembled vector to time.
func (ps *ProblemScaler) PredictTime(chars map[string]float64) (float64, error) {
	t, _, err := ps.PredictDetail(chars)
	return t, err
}

// assembleVector builds the reduced forest's input vector for one query:
// characteristics are taken from the query, counters from their models. It
// returns the vector and the intermediate counter predictions.
func (ps *ProblemScaler) assembleVector(chars map[string]float64) ([]float64, map[string]float64, error) {
	charVec := make([]float64, len(ps.CharNames))
	for i, n := range ps.CharNames {
		v, ok := chars[n]
		if !ok {
			return nil, nil, fmt.Errorf("core: missing characteristic %q", n)
		}
		charVec[i] = v
	}
	counters := make(map[string]float64, len(ps.Models))
	x := make([]float64, len(ps.Reduced.Predictors))
	for i, name := range ps.Reduced.Predictors {
		if isCharacteristic(name) {
			v, ok := chars[name]
			if !ok {
				return nil, nil, fmt.Errorf("core: missing characteristic %q", name)
			}
			x[i] = v
			continue
		}
		x[i] = ps.Models[name].Predict(charVec)
		counters[name] = x[i]
	}
	return x, counters, nil
}

// PredictDetail is PredictTime plus the intermediate per-counter
// predictions the forest consumed — the serving layer's response payload.
func (ps *ProblemScaler) PredictDetail(chars map[string]float64) (float64, map[string]float64, error) {
	x, counters, err := ps.assembleVector(chars)
	if err != nil {
		return 0, nil, err
	}
	// PredictVector reports a malformed vector as an error: the serving path
	// runs through here, and one bad predict must never panic the server.
	t, err := ps.Reduced.Forest.PredictVector(x)
	if err != nil {
		return 0, nil, err
	}
	return t, counters, nil
}

// PredictDetailAll is PredictDetail over many queries at once, routed
// through the forest's tree-major flat batch path (Forest.PredictAll),
// which is bit-identical to the per-row walk for every worker count. Rows
// fail independently: errs[i] reports row i's problem while every other
// row still gets its prediction — the serving coalescer batches unrelated
// requests, so one bad vector must never fail its batch-mates.
func (ps *ProblemScaler) PredictDetailAll(rows []map[string]float64) (times []float64, counters []map[string]float64, errs []error) {
	times = make([]float64, len(rows))
	counters = make([]map[string]float64, len(rows))
	errs = make([]error, len(rows))
	xs := make([][]float64, 0, len(rows))
	idx := make([]int, 0, len(rows))
	for i, row := range rows {
		x, cs, err := ps.assembleVector(row)
		if err != nil {
			errs[i] = err
			continue
		}
		counters[i] = cs
		xs = append(xs, x)
		idx = append(idx, i)
	}
	if len(xs) == 0 {
		return times, counters, errs
	}
	// PredictAll fails only on a row of the wrong width, and assembleVector
	// builds every row with one entry per reduced predictor: the forest's
	// width, checked when the scaler was fitted or imported. So err is nil
	// unless that invariant breaks, and then every batched row reports it.
	preds, err := ps.Reduced.Forest.PredictAll(xs)
	for j, i := range idx {
		if err != nil {
			errs[i] = err
		} else {
			times[i] = preds[j]
		}
	}
	return times, counters, errs
}

// CharacteristicScales reports, per problem characteristic, the maximum
// absolute value seen in training — the normalization scale the counter
// models carry in the bundle. Load generators use it to sample realistic
// synthetic query distributions from a bundle alone. Characteristics
// without a fitted counter model (a scaler whose reduced forest kept only
// characteristics) default to scale 1.
func (ps *ProblemScaler) CharacteristicScales() map[string]float64 {
	out := make(map[string]float64, len(ps.CharNames))
	for _, n := range ps.CharNames {
		out[n] = 1
	}
	// Every counter model is fitted on the same training frame over the
	// same characteristic order, so any one of them carries the scales.
	for _, cm := range ps.Models {
		for i, c := range cm.chars {
			if i < len(cm.scales) {
				out[c] = cm.scales[i]
			}
		}
		break
	}
	return out
}

// Evaluation compares characteristic-only predictions against measured
// times for every row of a frame.
type Evaluation struct {
	Chars     []map[string]float64
	Predicted []float64
	Actual    []float64
	MSE       float64
	R2        float64
}

// Evaluate runs PredictTime for every row of the frame (typically the test
// split) using only its characteristic columns, and scores the result
// against the measured time — the paper's Fig. 5(b)/6(b) experiment.
func (ps *ProblemScaler) Evaluate(frame *dataset.Frame) (*Evaluation, error) {
	n := frame.NumRows()
	ev := &Evaluation{}
	for i := 0; i < n; i++ {
		chars := make(map[string]float64, len(ps.CharNames))
		for _, c := range ps.CharNames {
			v, err := frame.At(i, c)
			if err != nil {
				return nil, err
			}
			chars[c] = v
		}
		pred, err := ps.PredictTime(chars)
		if err != nil {
			return nil, err
		}
		actual, err := frame.At(i, ps.Reduced.cfg.response())
		if err != nil {
			return nil, err
		}
		ev.Chars = append(ev.Chars, chars)
		ev.Predicted = append(ev.Predicted, pred)
		ev.Actual = append(ev.Actual, actual)
	}
	ev.MSE = stats.MSE(ev.Predicted, ev.Actual)
	ev.R2 = stats.RSquared(ev.Predicted, ev.Actual)
	return ev, nil
}

// AverageCounterR2 returns the mean training R² over the counter models —
// the paper's "average R-squared of 0.99" quality summary.
func (ps *ProblemScaler) AverageCounterR2() float64 {
	if len(ps.Models) == 0 {
		return 0
	}
	var s float64
	for _, m := range ps.Models {
		s += m.TrainR2
	}
	return s / float64(len(ps.Models))
}
