package optimize

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"blackforest/internal/gpusim"
	"blackforest/internal/obs"
	"blackforest/internal/profiler"
	"blackforest/internal/runcache"
)

// LaneOptimize is the trace lane for optimizer spans and decision
// instants (simulation work itself shows on the worker lanes).
const LaneOptimize = -2

// Search defaults.
const (
	// DefaultSearchSimBlocks is the low-fidelity block cap candidates
	// are scored at.
	DefaultSearchSimBlocks = 8
	// DefaultValidateSimBlocks is the high-fidelity cap every would-be
	// accepted candidate is re-simulated at before the incumbent moves.
	DefaultValidateSimBlocks = 24
	// DefaultMinGainPct is the validated cycle improvement (percent)
	// below which a candidate is not worth accepting.
	DefaultMinGainPct = 1.0
	// DefaultMaxSteps bounds the greedy search depth.
	DefaultMaxSteps = 8
)

// Config configures one optimization search.
type Config struct {
	// Device is the simulated GPU (required).
	Device *gpusim.Device
	// SearchSimBlocks and ValidateSimBlocks are the two simulation
	// fidelities: candidates are ranked at the cheap search cap, and the
	// best is confirmed at the validation cap before it may replace the
	// incumbent. 0 selects the defaults.
	SearchSimBlocks   int
	ValidateSimBlocks int
	// MinGainPct is the acceptance threshold, in percent of the
	// incumbent's cycles; it guards both fidelities (a candidate below
	// it at search fidelity is rejected without validation; one below it
	// at validation fidelity is rolled back). 0 selects the default;
	// negative means any non-regression.
	MinGainPct float64
	// MaxSteps bounds accepted transformations (0 = default).
	MaxSteps int
	// Transforms optionally restricts the search to an explicit menu of
	// edits; nil searches every tunable parameter's full domain.
	Transforms []Transform
	// Seed drives the profiler's workload identity (the optimizer
	// itself is deterministic; simulations run noise-free).
	Seed uint64
	// Cache, Gate and Tracer are threaded into every candidate
	// simulation — repeated searches hit the run cache bit-identically.
	Cache  *runcache.Cache[*profiler.Profile]
	Gate   profiler.Gate
	Tracer *obs.Tracer

	// searchRun and validateRun override the two profiling fidelities in
	// white-box tests (e.g. to force a search/validation disagreement
	// and observe the rollback); nil uses real profilers.
	searchRun   func(profiler.Workload) (*profiler.Profile, error)
	validateRun func(profiler.Workload) (*profiler.Profile, error)
}

func (c Config) withDefaults() Config {
	if c.SearchSimBlocks == 0 {
		c.SearchSimBlocks = DefaultSearchSimBlocks
	}
	if c.ValidateSimBlocks == 0 {
		c.ValidateSimBlocks = DefaultValidateSimBlocks
	}
	if c.MinGainPct == 0 {
		c.MinGainPct = DefaultMinGainPct
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = DefaultMaxSteps
	}
	return c
}

func (c Config) profiler(simBlocks int) func(profiler.Workload) (*profiler.Profile, error) {
	return profiler.New(c.Device, profiler.Options{
		MaxSimBlocks: simBlocks,
		NoiseSigma:   -1,
		Seed:         c.Seed,
		Cache:        c.Cache,
		Gate:         c.Gate,
		Tracer:       c.Tracer,
	}).Run
}

// Outcome is the fate of one candidate transformation.
type Outcome string

const (
	// OutcomeAccepted: the candidate won at search fidelity and its gain
	// held up at validation fidelity — it became the incumbent.
	OutcomeAccepted Outcome = "accepted"
	// OutcomeRejected: the search-fidelity gain was below threshold; the
	// candidate was not validated.
	OutcomeRejected Outcome = "rejected"
	// OutcomeRolledBack: the candidate cleared the search threshold but
	// regressed (or gained too little) at validation fidelity — the
	// incumbent was kept and the transform banned for this search.
	OutcomeRolledBack Outcome = "rolled-back"
	// OutcomeInvalid: the candidate could not be built or simulated
	// (illegal parameter combination for this problem size).
	OutcomeInvalid Outcome = "invalid"
)

// Decision is one row of the auditable search log: a candidate
// transformation, the evidence gathered about it, and its fate.
type Decision struct {
	Step      int       `json:"step"`
	Transform Transform `json:"transform"`
	// From is the parameter's value in the incumbent.
	From int `json:"from"`
	// SearchCycles and SearchGainPct are the low-fidelity evidence
	// (gain is relative to the incumbent at the same fidelity).
	SearchCycles  float64 `json:"search_cycles,omitempty"`
	SearchGainPct float64 `json:"search_gain_pct,omitempty"`
	// ValidatedCycles and ValidatedGainPct are filled only for
	// candidates that reached validation (accepted or rolled back).
	ValidatedCycles  float64 `json:"validated_cycles,omitempty"`
	ValidatedGainPct float64 `json:"validated_gain_pct,omitempty"`
	Outcome          Outcome `json:"outcome"`
	Reason           string  `json:"reason"`
}

// Variant is one launch configuration with its validated measurements.
type Variant struct {
	Params    map[string]int             `json:"params"`
	Cycles    float64                    `json:"cycles"`
	TimeMS    float64                    `json:"time_ms"`
	Occupancy float64                    `json:"occupancy"`
	Breakdown gpusim.BottleneckBreakdown `json:"breakdown"`
}

func makeVariant(w Tunable, p *profiler.Profile) Variant {
	params := make(map[string]int, len(w.Params()))
	for k, v := range w.Params() {
		params[k] = v
	}
	return Variant{
		Params:    params,
		Cycles:    p.Cycles,
		TimeMS:    p.ModelTimeMS,
		Occupancy: p.Metrics["achieved_occupancy"],
		Breakdown: p.Breakdown,
	}
}

// Result is one kernel's optimization outcome: the regime diagnosis, the
// baseline and final configurations at validation fidelity, and the full
// decision log. It doubles as the serialized decision-log format
// (WriteLog).
type Result struct {
	Workload string `json:"workload"`
	Device   string `json:"device"`
	// Search configuration, recorded for reproducibility.
	SearchSimBlocks   int     `json:"search_sim_blocks"`
	ValidateSimBlocks int     `json:"validate_sim_blocks"`
	MinGainPct        float64 `json:"min_gain_pct"`
	Seed              uint64  `json:"seed"`

	Classification Classification `json:"classification"`
	// FinalRegime is the regime of the optimized configuration.
	FinalRegime Regime  `json:"final_regime"`
	Baseline    Variant `json:"baseline"`
	Final       Variant `json:"final"`
	// GainPct is the validated improvement from baseline to final, in
	// percent of baseline cycles (≥ 0 by construction: every accepted
	// step is validated, every regression rolled back).
	GainPct   float64    `json:"gain_pct"`
	Decisions []Decision `json:"decisions"`

	Tried, Accepted, Rejected, RolledBack, Invalid int `json:"-"`
}

// WriteLog serializes the decision log as indented JSON. The encoding is
// deterministic: map keys sort, and the search itself is noise-free, so
// two searches from the same seed write byte-identical logs.
func (r *Result) WriteLog(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func (r *Result) recount() {
	r.Tried, r.Accepted, r.Rejected, r.RolledBack, r.Invalid = 0, 0, 0, 0, 0
	for _, d := range r.Decisions {
		r.Tried++
		switch d.Outcome {
		case OutcomeAccepted:
			r.Accepted++
		case OutcomeRejected:
			r.Rejected++
		case OutcomeRolledBack:
			r.RolledBack++
		case OutcomeInvalid:
			r.Invalid++
		}
	}
}

// candidate is one menu entry under evaluation.
type candidate struct {
	tr      Transform
	from    int
	order   int // menu position, the deterministic tiebreak
	w       Tunable
	profile *profiler.Profile
	err     error
}

// Optimize runs the guarded greedy search: classify the baseline, then
// repeatedly score every legal single-parameter edit of the incumbent at
// search fidelity, validate the most promising at validation fidelity,
// and accept it only if the validated gain clears MinGainPct — otherwise
// roll back to the incumbent and try the next candidate. The search
// stops when a step accepts nothing or MaxSteps transformations have
// been accepted. It is fully deterministic: simulations are noise-free,
// candidates are enumerated in sorted parameter order, and ranking ties
// break by menu position.
func Optimize(w Tunable, cfg Config) (*Result, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("optimize: Config.Device is required")
	}
	cfg = cfg.withDefaults()
	search, validate := cfg.searchRun, cfg.validateRun
	if search == nil {
		search = cfg.profiler(cfg.SearchSimBlocks)
	}
	if validate == nil {
		validate = cfg.profiler(cfg.ValidateSimBlocks)
	}
	if tr := cfg.Tracer; tr.Enabled() {
		tr.SetLaneName(LaneOptimize, "optimize")
	}
	span := cfg.Tracer.Begin(LaneOptimize, "optimize "+w.Name()).
		Arg("device", cfg.Device.Name)
	defer span.End()

	baseValid, err := validate(w)
	if err != nil {
		return nil, fmt.Errorf("optimize: baseline validation run: %w", err)
	}
	baseSearch, err := search(w)
	if err != nil {
		return nil, fmt.Errorf("optimize: baseline search run: %w", err)
	}

	res := &Result{
		Workload:          w.Name(),
		Device:            cfg.Device.Name,
		SearchSimBlocks:   cfg.SearchSimBlocks,
		ValidateSimBlocks: cfg.ValidateSimBlocks,
		MinGainPct:        cfg.MinGainPct,
		Seed:              cfg.Seed,
		Classification:    Classify(cfg.Device, baseValid),
		Baseline:          makeVariant(w, baseValid),
	}

	incumbent := w
	incValidCycles := baseValid.Cycles
	incSearchCycles := baseSearch.Cycles
	finalProfile := baseValid
	banned := make(map[Transform]bool)

	for step := 1; step <= cfg.MaxSteps; step++ {
		cands := enumerate(incumbent, cfg.Transforms, banned)
		if len(cands) == 0 {
			break
		}
		for i := range cands {
			c := &cands[i]
			cw, err := incumbent.WithParam(c.tr.Param, c.tr.Value)
			if err != nil {
				c.err = err
				continue
			}
			tw, ok := cw.(Tunable)
			if !ok {
				c.err = fmt.Errorf("optimize: %s.WithParam returned a non-Tunable workload", incumbent.Name())
				continue
			}
			c.w = tw
			c.profile, c.err = search(tw)
		}
		// Rank: best search cycles first; ties break by menu position so
		// the order — and therefore the log — is deterministic.
		sort.SliceStable(cands, func(i, j int) bool {
			ci, cj := &cands[i], &cands[j]
			if (ci.err == nil) != (cj.err == nil) {
				return ci.err == nil
			}
			if ci.err != nil {
				return ci.order < cj.order
			}
			if ci.profile.Cycles != cj.profile.Cycles {
				return ci.profile.Cycles < cj.profile.Cycles
			}
			return ci.order < cj.order
		})

		// All candidates this step were scored against the step-start
		// incumbent; every logged gain is relative to it.
		stepSearch, stepValid := incSearchCycles, incValidCycles
		accepted := false
		for i := range cands {
			c := &cands[i]
			d := Decision{Step: step, Transform: c.tr, From: c.from}
			switch {
			case c.err != nil:
				d.Outcome = OutcomeInvalid
				d.Reason = c.err.Error()
				banned[c.tr] = true
			case accepted:
				// A better candidate already won this step; the rest are
				// rejected unvalidated (they may return in a later step).
				d.SearchCycles = c.profile.Cycles
				d.SearchGainPct = gainPct(stepSearch, c.profile.Cycles)
				d.Outcome = OutcomeRejected
				d.Reason = "a better candidate was accepted this step"
			default:
				d.SearchCycles = c.profile.Cycles
				d.SearchGainPct = gainPct(stepSearch, c.profile.Cycles)
				if d.SearchGainPct < cfg.MinGainPct {
					d.Outcome = OutcomeRejected
					d.Reason = fmt.Sprintf("search gain %.2f%% below threshold %.2f%%", d.SearchGainPct, cfg.MinGainPct)
					break
				}
				vprof, verr := validate(c.w)
				if verr != nil {
					d.Outcome = OutcomeInvalid
					d.Reason = fmt.Sprintf("validation run failed: %v", verr)
					banned[c.tr] = true
					break
				}
				d.ValidatedCycles = vprof.Cycles
				d.ValidatedGainPct = gainPct(stepValid, vprof.Cycles)
				if d.ValidatedGainPct < cfg.MinGainPct {
					d.Outcome = OutcomeRolledBack
					d.Reason = fmt.Sprintf("validated gain %.2f%% below threshold %.2f%% — incumbent kept", d.ValidatedGainPct, cfg.MinGainPct)
					banned[c.tr] = true
					break
				}
				d.Outcome = OutcomeAccepted
				d.Reason = fmt.Sprintf("validated gain %.2f%% over incumbent", d.ValidatedGainPct)
				incumbent = c.w
				incValidCycles = vprof.Cycles
				incSearchCycles = c.profile.Cycles
				finalProfile = vprof
				accepted = true
			}
			cfg.Tracer.Instant(LaneOptimize, fmt.Sprintf("%s %s", d.Outcome, d.Transform),
				obs.Arg{Key: "workload", Value: w.Name()})
			res.Decisions = append(res.Decisions, d)
		}
		if !accepted {
			break
		}
	}

	res.Final = makeVariant(incumbent, finalProfile)
	res.FinalRegime = Classify(cfg.Device, finalProfile).Regime
	res.GainPct = gainPct(res.Baseline.Cycles, res.Final.Cycles)
	res.recount()
	span.Arg("accepted", fmt.Sprintf("%d", res.Accepted)).
		Arg("gain_pct", fmt.Sprintf("%.2f", res.GainPct))
	return res, nil
}

// enumerate lists every legal single-parameter edit of the incumbent, in
// sorted parameter order then domain order, skipping the current values,
// banned transforms, and (when a menu is given) anything off-menu.
func enumerate(w Tunable, menu []Transform, banned map[Transform]bool) []candidate {
	params := w.Params()
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	allowed := func(t Transform) bool {
		if len(menu) == 0 {
			return true
		}
		for _, m := range menu {
			if m == t {
				return true
			}
		}
		return false
	}
	var out []candidate
	for _, name := range names {
		for _, v := range w.ParamDomain(name) {
			t := Transform{Param: name, Value: v}
			if v == params[name] || banned[t] || !allowed(t) {
				continue
			}
			out = append(out, candidate{tr: t, from: params[name], order: len(out)})
		}
	}
	return out
}

func gainPct(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return 100 * (from - to) / from
}
