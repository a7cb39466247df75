package core

import (
	"fmt"

	"blackforest/internal/dataset"
	"blackforest/internal/pca"
)

// PCAFirstAnalysis is the paper's §7 plan realized: "first applying PCA
// onto the data to both remove correlated variables and reduce
// dimensionality, potentially uncovering hidden structure, thus leading to
// easy interpretation of random forest outcome". The predictors are
// replaced by the scores of the leading principal components (plus the
// problem characteristics, which stay in natural units), and the forest is
// trained on those.
type PCAFirstAnalysis struct {
	// Analysis is the forest over component scores; predictor names are
	// PC1..PCk plus the retained characteristics.
	*Analysis
	// PCA is the fitted decomposition (for loading interpretation).
	PCA *pca.Result
	// Components is the number of retained components.
	Components int
}

// AnalyzePCAFirst runs the PCA-first variant of the pipeline on a
// collected frame.
func AnalyzePCAFirst(frame *dataset.Frame, cfg Config) (*PCAFirstAnalysis, error) {
	cfg = cfg.withDefaults()
	// Split predictors into measured counters (rotated) and
	// characteristics (passed through).
	var counterVars, chars []string
	for _, n := range Predictors(frame) {
		if isCharacteristic(n) {
			chars = append(chars, n)
		} else {
			counterVars = append(counterVars, n)
		}
	}
	if len(counterVars) < 2 {
		return nil, fmt.Errorf("core: only %d counters available for PCA", len(counterVars))
	}

	x, err := frame.Matrix(counterVars)
	if err != nil {
		return nil, err
	}
	p, err := pca.Fit(x, counterVars)
	if err != nil {
		return nil, err
	}
	k := p.ComponentsFor(cfg.PCAVariance)

	// Build the rotated frame: PC scores, characteristics, responses.
	rotated := dataset.New()
	for c := 0; c < k; c++ {
		if err := rotated.AddColumn(fmt.Sprintf("PC%d", c+1), p.Scores.Col(c)); err != nil {
			return nil, err
		}
	}
	for _, name := range chars {
		col, err := frame.Column(name)
		if err != nil {
			return nil, err
		}
		if err := rotated.AddColumn(name, col); err != nil {
			return nil, err
		}
	}
	for _, name := range responseColumns {
		if !frame.Has(name) {
			continue
		}
		col, err := frame.Column(name)
		if err != nil {
			return nil, err
		}
		if err := rotated.AddColumn(name, col); err != nil {
			return nil, err
		}
	}

	a, err := Analyze(rotated, cfg)
	if err != nil {
		return nil, err
	}
	return &PCAFirstAnalysis{Analysis: a, PCA: p, Components: k}, nil
}
