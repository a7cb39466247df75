package forest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"blackforest/internal/rtree"
)

// Exported is the serializable form of a fitted forest: the trees and the
// training-derived statistics, but not the training data itself. A loaded
// forest predicts and reports importance; partial dependence (which needs
// the training distribution) is unavailable and returns an error.
//
// Export writes the forest as Flat, its node arrays with values under the
// smallest lossless encoding, and never writes Trees. Trees is read so that
// bundles written in the older per-node tree form still load: they decode
// into the same node arrays through the same validation (rtree.ImportTrees).
// When a bundle carries both, Import verifies they describe the same forest.
type Exported struct {
	Version  int                       `json:"version"`
	Names    []string                  `json:"names"`
	Trees    []*rtree.ExportedTree     `json:"trees,omitempty"`
	Flat     *rtree.ExportedFlatForest `json:"flat,omitempty"`
	OOBMSE   float64                   `json:"oob_mse"`
	VarExpl  float64                   `json:"var_explained"`
	RawImp   []float64                 `json:"importance"`
	ImpSE    []float64                 `json:"importance_se"`
	Purity   []float64                 `json:"purity"`
	MinResp  float64                   `json:"min_response"`
	MaxResp  float64                   `json:"max_response"`
	NSamples int                       `json:"training_samples"`
}

const saveVersion = 1

// Export returns the forest in serializable form: the training-derived
// statistics and the flat encoding, from which a loaded forest predicts
// bit-identically.
func (f *Forest) Export() *Exported {
	return &Exported{
		Version:  saveVersion,
		Names:    append([]string(nil), f.names...),
		Flat:     f.flat.Export(),
		OOBMSE:   f.oobMSE,
		VarExpl:  f.varExpl,
		RawImp:   append([]float64(nil), f.rawImp...),
		ImpSE:    append([]float64(nil), f.impSE...),
		Purity:   append([]float64(nil), f.purity...),
		MinResp:  f.minResp,
		MaxResp:  f.maxResp,
		NSamples: f.nSamples,
	}
}

// Import reconstructs a forest from its exported form with the same
// validation as Load. The result predicts and reports importance exactly as
// the original; PartialDependence, which needs the training data, reports
// that it is absent.
func Import(e *Exported) (*Forest, error) {
	if e == nil {
		return nil, errors.New("forest: nil exported model")
	}
	if e.Version != saveVersion {
		return nil, fmt.Errorf("forest: unsupported model version %d", e.Version)
	}
	if len(e.Trees) == 0 && e.Flat == nil {
		return nil, errors.New("forest: saved model has no trees")
	}
	p := len(e.Names)
	if p == 0 || len(e.RawImp) != p || len(e.ImpSE) != p || len(e.Purity) != p {
		return nil, errors.New("forest: saved model has inconsistent predictor metadata")
	}
	for j := 0; j < p; j++ {
		if math.IsNaN(e.RawImp[j]) || math.IsNaN(e.ImpSE[j]) || math.IsNaN(e.Purity[j]) {
			return nil, fmt.Errorf("forest: importance of predictor %d is NaN", j)
		}
	}
	f := &Forest{
		names:    append([]string(nil), e.Names...),
		oobMSE:   e.OOBMSE,
		varExpl:  e.VarExpl,
		rawImp:   append([]float64(nil), e.RawImp...),
		impSE:    append([]float64(nil), e.ImpSE...),
		purity:   append([]float64(nil), e.Purity...),
		minResp:  e.MinResp,
		maxResp:  e.MaxResp,
		nSamples: e.NSamples, // the count only: training rows are not persisted
	}
	var fl *rtree.FlatForest
	var err error
	if len(e.Trees) > 0 {
		// The trees are authoritative: the serving engine is read from
		// them, and if the bundle also carries a flat encoding it must
		// match bit for bit — a disagreement means a corrupted or tampered
		// bundle.
		if fl, err = rtree.ImportTrees(e.Trees); err != nil {
			return nil, fmt.Errorf("forest: %w", err)
		}
		if e.Flat != nil {
			imported, err := rtree.ImportFlat(e.Flat)
			if err != nil {
				return nil, fmt.Errorf("forest: flat encoding: %w", err)
			}
			if !imported.Equal(fl) {
				return nil, errors.New("forest: flat encoding disagrees with the trees")
			}
		}
	} else if fl, err = rtree.ImportFlat(e.Flat); err != nil {
		return nil, fmt.Errorf("forest: flat encoding: %w", err)
	}
	if fl.NumFeatures() != p {
		return nil, fmt.Errorf("forest: trees have %d features, model has %d", fl.NumFeatures(), p)
	}
	f.flat = fl
	return f, nil
}

// Save writes the forest as JSON.
func (f *Forest) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(f.Export())
}

// Load reads a forest saved with Save.
func Load(r io.Reader) (*Forest, error) {
	var e Exported
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("forest: decoding saved model: %w", err)
	}
	return Import(&e)
}
