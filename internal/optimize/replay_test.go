package optimize

import (
	"encoding/json"
	"fmt"
	"io"
)

// ReadLog deserializes a decision log written by WriteLog.
func ReadLog(rd io.Reader) (*Result, error) {
	var r Result
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("optimize: reading decision log: %w", err)
	}
	r.recount()
	return &r, nil
}

// Replay re-derives a decision log's outcome from scratch: it applies
// the accepted transformations to the baseline workload in log order,
// re-simulates each resulting configuration at validation fidelity, and
// checks every cycle count — and the final parameters — bit-exactly
// against the log. A nil error means the log is a faithful, reproducible
// record of the search.
func Replay(w Tunable, log *Result, cfg Config) error {
	if cfg.Device == nil {
		return fmt.Errorf("optimize: Config.Device is required")
	}
	cfg.SearchSimBlocks = log.SearchSimBlocks
	cfg.ValidateSimBlocks = log.ValidateSimBlocks
	cfg.Seed = log.Seed
	cfg = cfg.withDefaults()
	validate := cfg.validateRun
	if validate == nil {
		validate = cfg.profiler(cfg.ValidateSimBlocks)
	}

	base, err := validate(w)
	if err != nil {
		return fmt.Errorf("optimize: replaying baseline: %w", err)
	}
	if base.Cycles != log.Baseline.Cycles {
		return fmt.Errorf("optimize: replayed baseline cycles %v != logged %v", base.Cycles, log.Baseline.Cycles)
	}
	cur := w
	for _, d := range log.Decisions {
		if d.Outcome != OutcomeAccepted {
			continue
		}
		next, err := cur.WithParam(d.Transform.Param, d.Transform.Value)
		if err != nil {
			return fmt.Errorf("optimize: replaying step %d (%s): %w", d.Step, d.Transform, err)
		}
		tw, ok := next.(Tunable)
		if !ok {
			return fmt.Errorf("optimize: replaying step %d (%s): workload is not Tunable", d.Step, d.Transform)
		}
		cur = tw
		prof, err := validate(cur)
		if err != nil {
			return fmt.Errorf("optimize: replaying step %d (%s): %w", d.Step, d.Transform, err)
		}
		if prof.Cycles != d.ValidatedCycles {
			return fmt.Errorf("optimize: step %d (%s) replayed cycles %v != logged %v",
				d.Step, d.Transform, prof.Cycles, d.ValidatedCycles)
		}
	}
	finalParams := cur.Params()
	if len(finalParams) != len(log.Final.Params) {
		return fmt.Errorf("optimize: replayed final params %v != logged %v", finalParams, log.Final.Params)
	}
	for k, v := range log.Final.Params {
		if finalParams[k] != v {
			return fmt.Errorf("optimize: replayed final params %v != logged %v", finalParams, log.Final.Params)
		}
	}
	return nil
}
