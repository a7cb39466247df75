package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"blackforest/internal/forest"
	"blackforest/internal/glm"
	"blackforest/internal/jsonx"
	"blackforest/internal/mars"
)

// BundleVersion is the on-disk model-bundle format version. The
// compatibility policy (see DESIGN.md): loaders accept exactly the versions
// they know; any format change that alters prediction output bumps the
// version, so an old binary refuses a new bundle instead of mispredicting.
const BundleVersion = 1

// ExportedCounterModel is the serializable form of a CounterModel.
type ExportedCounterModel struct {
	Counter          string              `json:"counter"`
	Kind             string              `json:"kind"`
	TrainR2          jsonx.Float64       `json:"train_r2"`
	ResidualDeviance jsonx.Float64       `json:"residual_deviance"`
	Chars            []string            `json:"chars"`
	Scales           []float64           `json:"scales"`
	GLM              *glm.ExportedModel  `json:"glm,omitempty"`
	MARS             *mars.ExportedModel `json:"mars,omitempty"`
}

// Export returns the counter model in serializable form.
func (cm *CounterModel) Export() *ExportedCounterModel {
	e := &ExportedCounterModel{
		Counter:          cm.Counter,
		Kind:             cm.Kind,
		TrainR2:          jsonx.Float64(cm.TrainR2),
		ResidualDeviance: jsonx.Float64(cm.ResidualDeviance),
		Chars:            append([]string(nil), cm.chars...),
		Scales:           append([]float64(nil), cm.scales...),
	}
	if cm.m != nil {
		e.MARS = cm.m.Export()
	} else if cm.g != nil {
		e.GLM = cm.g.Export()
	}
	return e
}

// ImportCounterModel reconstructs a counter model from its exported form,
// validating that the embedded GLM/MARS matches the characteristic list so
// a corrupted bundle errors instead of panicking at prediction time.
func ImportCounterModel(e *ExportedCounterModel) (*CounterModel, error) {
	if e == nil {
		return nil, errors.New("core: nil exported counter model")
	}
	if e.Counter == "" {
		return nil, errors.New("core: exported counter model has no counter name")
	}
	if len(e.Chars) == 0 {
		return nil, fmt.Errorf("core: counter model %s has no characteristics", e.Counter)
	}
	if len(e.Scales) != len(e.Chars) {
		return nil, fmt.Errorf("core: counter model %s has %d scales for %d characteristics",
			e.Counter, len(e.Scales), len(e.Chars))
	}
	for i, s := range e.Scales {
		if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("core: counter model %s has invalid scale for %s", e.Counter, e.Chars[i])
		}
	}
	cm := &CounterModel{
		Counter:          e.Counter,
		Kind:             e.Kind,
		TrainR2:          float64(e.TrainR2),
		ResidualDeviance: float64(e.ResidualDeviance),
		chars:            append([]string(nil), e.Chars...),
		scales:           append([]float64(nil), e.Scales...),
	}
	switch e.Kind {
	case "glm":
		if e.GLM == nil {
			return nil, fmt.Errorf("core: counter model %s declares glm but carries none", e.Counter)
		}
		g, err := glm.Import(e.GLM)
		if err != nil {
			return nil, fmt.Errorf("core: counter model %s: %w", e.Counter, err)
		}
		if want := len(polyExpandNames(e.Chars)); len(g.Names) != want {
			return nil, fmt.Errorf("core: counter model %s GLM has %d basis terms for %d characteristics (want %d)",
				e.Counter, len(g.Names), len(e.Chars), want)
		}
		cm.g = g
	case "mars":
		if e.MARS == nil {
			return nil, fmt.Errorf("core: counter model %s declares mars but carries none", e.Counter)
		}
		m, err := mars.Import(e.MARS)
		if err != nil {
			return nil, fmt.Errorf("core: counter model %s: %w", e.Counter, err)
		}
		if len(m.Names) != len(e.Chars) {
			return nil, fmt.Errorf("core: counter model %s MARS has %d predictors for %d characteristics",
				e.Counter, len(m.Names), len(e.Chars))
		}
		cm.m = m
	default:
		return nil, fmt.Errorf("core: counter model %s has unknown kind %q", e.Counter, e.Kind)
	}
	return cm, nil
}

// Bundle is the versioned on-disk form of a ProblemScaler — the paper's
// complete prediction artifact: the reduced forest, the per-counter
// GLM/MARS models with their normalization, and the validation statistics,
// everything needed to answer PredictTime without re-profiling.
type Bundle struct {
	Version   int      `json:"version"`
	Response  string   `json:"response"`
	CharNames []string `json:"char_names"`
	// Predictors is the reduced forest's input order: characteristics are
	// taken from the query, counters from their models.
	Predictors []string                         `json:"predictors"`
	Forest     *forest.Exported                 `json:"forest"`
	Models     map[string]*ExportedCounterModel `json:"models"`

	// Validation statistics of the reduced analysis, carried for reporting
	// (GET /v1/model, blackforest -load): they describe the fit, not the
	// prediction function.
	OOBMSE       float64 `json:"oob_mse"`
	VarExplained float64 `json:"var_explained"`
	TestMSE      float64 `json:"test_mse"`
	TestR2       float64 `json:"test_r2"`

	// Degradation records how an incomplete collection was repaired
	// before this model was fit (dropped/imputed counter columns). Nil
	// for models trained on complete data. Reporting-only, like the
	// validation statistics, so its addition stays within version 1.
	Degradation *Degradation `json:"degradation,omitempty"`
}

// Export returns the scaler in serializable form.
func (ps *ProblemScaler) Export() *Bundle {
	b := &Bundle{
		Version:      BundleVersion,
		Response:     ps.Reduced.cfg.response(),
		CharNames:    append([]string(nil), ps.CharNames...),
		Predictors:   append([]string(nil), ps.Reduced.Predictors...),
		Forest:       ps.Reduced.Forest.Export(),
		Models:       make(map[string]*ExportedCounterModel, len(ps.Models)),
		OOBMSE:       ps.Reduced.OOBMSE,
		VarExplained: ps.Reduced.VarExplained,
		TestMSE:      ps.Reduced.TestMSE,
		TestR2:       ps.Reduced.TestR2,
		Degradation:  ps.Degradation,
	}
	for name, cm := range ps.Models {
		b.Models[name] = cm.Export()
	}
	return b
}

// ImportBundle reconstructs a ProblemScaler from a bundle. The loaded
// scaler predicts bit-identically to the saved one; the training frames are
// not persisted, so Analysis methods needing them are unavailable.
func ImportBundle(b *Bundle) (*ProblemScaler, error) {
	if b == nil {
		return nil, errors.New("core: nil bundle")
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("core: unsupported bundle version %d (this build reads version %d)",
			b.Version, BundleVersion)
	}
	if b.Response == "" {
		return nil, errors.New("core: bundle has no response column")
	}
	if len(b.CharNames) == 0 {
		return nil, errors.New("core: bundle has no problem characteristics")
	}
	if len(b.Predictors) == 0 {
		return nil, errors.New("core: bundle has no predictors")
	}
	if err := validateDegradation(b.Degradation); err != nil {
		return nil, err
	}
	f, err := forest.Import(b.Forest)
	if err != nil {
		return nil, err
	}
	fnames := f.Names()
	if len(fnames) != len(b.Predictors) {
		return nil, fmt.Errorf("core: bundle forest has %d predictors, bundle lists %d",
			len(fnames), len(b.Predictors))
	}
	for i, n := range fnames {
		if n != b.Predictors[i] {
			return nil, fmt.Errorf("core: bundle forest predictor %d is %q, bundle lists %q",
				i, n, b.Predictors[i])
		}
	}

	ps := &ProblemScaler{
		Degradation: b.Degradation,
		Reduced: &Analysis{
			Predictors:   append([]string(nil), b.Predictors...),
			Forest:       f,
			Importance:   f.VariableImportance(),
			OOBMSE:       b.OOBMSE,
			VarExplained: b.VarExplained,
			TestMSE:      b.TestMSE,
			TestR2:       b.TestR2,
			cfg:          Config{Response: b.Response},
		},
		CharNames: append([]string(nil), b.CharNames...),
		Models:    make(map[string]*CounterModel, len(b.Models)),
	}

	// Every counter the forest consumes must have a model whose
	// characteristic order matches the bundle's, or PredictTime would
	// assemble vectors in the wrong order. Characteristic predictors must
	// appear in CharNames: callers (and the serving cache key) treat
	// CharNames as the complete input set of the prediction function.
	charSet := make(map[string]bool, len(b.CharNames))
	for _, c := range b.CharNames {
		charSet[c] = true
	}
	for _, name := range b.Predictors {
		if isCharacteristic(name) {
			if !charSet[name] {
				return nil, fmt.Errorf("core: characteristic predictor %q missing from char_names", name)
			}
			continue
		}
		e, ok := b.Models[name]
		if !ok {
			return nil, fmt.Errorf("core: bundle has no model for counter %q", name)
		}
		cm, err := ImportCounterModel(e)
		if err != nil {
			return nil, err
		}
		if cm.Counter != name {
			return nil, fmt.Errorf("core: bundle model under key %q describes counter %q", name, cm.Counter)
		}
		if len(cm.chars) != len(b.CharNames) {
			return nil, fmt.Errorf("core: counter model %s uses %d characteristics, bundle has %d",
				name, len(cm.chars), len(b.CharNames))
		}
		for i, c := range cm.chars {
			if c != b.CharNames[i] {
				return nil, fmt.Errorf("core: counter model %s characteristic %d is %q, bundle has %q",
					name, i, c, b.CharNames[i])
			}
		}
		ps.Models[name] = cm
	}
	return ps, nil
}

// Save writes the scaler as a single versioned JSON model bundle.
func (ps *ProblemScaler) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(ps.Export())
}

// LoadProblemScaler reads a model bundle saved with Save, with full
// validation: a corrupted bundle errors instead of panicking.
func LoadProblemScaler(r io.Reader) (*ProblemScaler, error) {
	var b Bundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("core: decoding model bundle: %w", err)
	}
	return ImportBundle(&b)
}

// SaveFile writes the scaler bundle to a file.
func (ps *ProblemScaler) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ps.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadProblemScalerFile reads a model bundle from a file.
func LoadProblemScalerFile(path string) (*ProblemScaler, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadProblemScaler(f)
}

// Response returns the response column the scaler predicts.
func (ps *ProblemScaler) Response() string { return ps.Reduced.cfg.response() }

// BundleMeta is the compact identity of a loaded model bundle — what a
// registry needs to name, list, and route to a model without reaching into
// the scaler's internals.
type BundleMeta struct {
	Version   int      `json:"bundle_version"`
	Response  string   `json:"response"`
	CharNames []string `json:"char_names"`
	Engine    string   `json:"engine"`
	NumTrees  int      `json:"num_trees"`
	TestR2    float64  `json:"test_r2"`
	Counters  int      `json:"counter_models"`
	// Degraded is true when the bundle discloses it was trained on a
	// repaired, incomplete collection.
	Degraded bool `json:"degraded"`
}

// Meta returns the scaler's bundle metadata.
func (ps *ProblemScaler) Meta() BundleMeta {
	return BundleMeta{
		Version:   BundleVersion,
		Response:  ps.Response(),
		CharNames: append([]string(nil), ps.CharNames...),
		Engine:    ps.Reduced.Forest.Engine(),
		NumTrees:  ps.Reduced.Forest.NumTrees(),
		TestR2:    ps.Reduced.TestR2,
		Counters:  len(ps.Models),
		Degraded:  ps.Degradation != nil,
	}
}

// CounterNames returns the modeled counters in sorted order.
func (ps *ProblemScaler) CounterNames() []string {
	out := make([]string, 0, len(ps.Models))
	for n := range ps.Models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
