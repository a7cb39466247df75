package core

import (
	"errors"
	"fmt"
	"math"

	"blackforest/internal/dataset"
	"blackforest/internal/forest"
	"blackforest/internal/stats"
)

// Analysis is a fitted BlackForest model: the forest, its validation
// statistics, and the variable-importance ranking (§4.2 stages 2–3).
type Analysis struct {
	// Frame is the full collected data; Train and Test are its split.
	Frame *dataset.Frame
	Train *dataset.Frame
	Test  *dataset.Frame
	// Predictors are the columns the forest was trained on.
	Predictors []string
	// Forest is the fitted random forest (response: time_ms).
	Forest *forest.Forest
	// Importance is the ranking, most important first.
	Importance []forest.Importance

	// OOBMSE and VarExplained are the forest's out-of-bag statistics.
	OOBMSE       float64
	VarExplained float64
	// TestMSE and TestR2 measure held-out predictive power.
	TestMSE float64
	TestR2  float64

	cfg Config
}

// Analyze runs stages 2 and 3 of the pipeline on a collected frame:
// random 80:20 split, forest construction on the training set, validation
// on the test set, and variable-importance extraction.
func Analyze(frame *dataset.Frame, cfg Config) (*Analysis, error) {
	cfg = cfg.withDefaults()
	if !frame.Has(cfg.response()) {
		return nil, fmt.Errorf("core: frame has no %s column", cfg.response())
	}
	if frame.NumRows() < 10 {
		return nil, fmt.Errorf("core: %d rows are too few to model (need at least 10)", frame.NumRows())
	}

	rng := stats.NewRNG(cfg.Seed ^ 0x5b117)
	train, test, err := frame.Split(rng, cfg.TrainFrac)
	if err != nil {
		return nil, err
	}
	return analyzeSplit(frame, train, test, Predictors(frame), cfg)
}

// AnalyzeWithPredictors is Analyze restricted to an explicit predictor set
// (used by the reduced model and the hardware-scaling workarounds).
func AnalyzeWithPredictors(frame *dataset.Frame, predictors []string, cfg Config) (*Analysis, error) {
	if len(predictors) == 0 {
		return nil, errors.New("core: empty predictor set")
	}
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed ^ 0x5b117)
	train, test, err := frame.Split(rng, cfg.TrainFrac)
	if err != nil {
		return nil, err
	}
	return analyzeSplit(frame, train, test, predictors, cfg)
}

// analyzeSplit fits and validates a forest on a prepared split.
func analyzeSplit(frame, train, test *dataset.Frame, predictors []string, cfg Config) (*Analysis, error) {
	x, err := train.Matrix(predictors)
	if err != nil {
		return nil, err
	}
	y, err := train.Column(cfg.response())
	if err != nil {
		return nil, err
	}
	fcfg := cfg.Forest
	fcfg.Seed = cfg.Seed
	f, err := forest.Fit(x, y, predictors, fcfg)
	if err != nil {
		return nil, fmt.Errorf("core: fitting forest: %w", err)
	}

	a := &Analysis{
		Frame:        frame,
		Train:        train,
		Test:         test,
		Predictors:   append([]string(nil), predictors...),
		Forest:       f,
		Importance:   f.VariableImportance(),
		OOBMSE:       f.OOBMSE(),
		VarExplained: f.VarExplained(),
		cfg:          cfg,
	}
	if test.NumRows() > 0 {
		tx, err := test.Matrix(predictors)
		if err != nil {
			return nil, err
		}
		ty, err := test.Column(cfg.response())
		if err != nil {
			return nil, err
		}
		pred, err := f.PredictAll(tx)
		if err != nil {
			return nil, err
		}
		a.TestMSE = stats.MSE(pred, ty)
		a.TestR2 = stats.RSquared(pred, ty)
	}
	return a, nil
}

// TopPredictors returns the k most important predictor names.
func (a *Analysis) TopPredictors(k int) []string {
	if k > len(a.Importance) {
		k = len(a.Importance)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = a.Importance[i].Name
	}
	return out
}

// TopDistinctPredictors selects the k most important predictors while
// skipping any whose |correlation| with an already-selected predictor
// exceeds maxCorr — the paper's guard against highly correlated variables
// (§4.1.2) applied at selection time. Duplicated counters (e.g. the store
// throughput family, which differ only by constant factors) collapse to
// one representative, letting structurally different signals into the set.
func (a *Analysis) TopDistinctPredictors(k int, maxCorr float64) []string {
	if maxCorr <= 0 {
		maxCorr = 0.999
	}
	var out []string
	var cols [][]float64
	for _, imp := range a.Importance {
		if len(out) == k {
			break
		}
		col := a.Frame.MustColumn(imp.Name)
		dup := false
		for _, prev := range cols {
			if math.Abs(stats.Correlation(col, prev)) > maxCorr {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, imp.Name)
		cols = append(cols, col)
	}
	return out
}

// Reduce refits the model on only the top-k most important predictors and
// reports whether the reduced model retains the predictive power of the
// full one (paper: "we first validate that those variables keep similar
// predictive power as the initial set"). Retention is judged on held-out
// R²: the reduced model must reach at least retainFrac of the full model's
// (default 0.9 when retainFrac ≤ 0).
func (a *Analysis) Reduce(k int, retainFrac float64) (*Analysis, bool, error) {
	if retainFrac <= 0 {
		retainFrac = 0.9
	}
	reduced, err := analyzeSplit(a.Frame, a.Train, a.Test, a.TopPredictors(k), a.cfg)
	if err != nil {
		return nil, false, err
	}
	retained := reduced.TestR2 >= retainFrac*a.TestR2
	return reduced, retained, nil
}

// PartialDependence returns the partial dependence profile of a predictor
// against the predicted execution time.
func (a *Analysis) PartialDependence(name string, gridSize int) (grid, response []float64, err error) {
	return a.Forest.PartialDependence(name, gridSize)
}

// PredictFrame predicts the response for every row of a frame that
// contains the analysis's predictor columns. It returns predictions and,
// when the frame carries a response column, the actual values.
func (a *Analysis) PredictFrame(f *dataset.Frame) (pred, actual []float64, err error) {
	x, err := f.Matrix(a.Predictors)
	if err != nil {
		return nil, nil, err
	}
	pred, err = a.Forest.PredictAll(x)
	if err != nil {
		return nil, nil, err
	}
	if f.Has(a.cfg.response()) {
		actual = append([]float64(nil), f.MustColumn(a.cfg.response())...)
	}
	return pred, actual, nil
}
