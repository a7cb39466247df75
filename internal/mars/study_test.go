package mars_test

import (
	"sort"
	"testing"

	"blackforest/internal/experiments"
	"blackforest/internal/mars"
)

// TestIncrementalFitMatchesOracleOnStudies runs the differential check on
// the training frames of the paper's problem-scaling studies at quick
// scale, matrix multiply (Fig. 5) and Needleman-Wunsch (Fig. 6): every
// counter the study models is fitted on the frame's problem
// characteristics, as the MARS path of core.FitCounterModel does.
func TestIncrementalFitMatchesOracleOnStudies(t *testing.T) {
	studies := []struct {
		name string
		run  func(experiments.Options) (*experiments.ProblemScaling, error)
	}{
		{"matmul", experiments.RunMatMulPrediction},
		{"needle", experiments.RunNWPrediction},
	}
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			res, err := st.run(experiments.Options{Scale: experiments.Quick, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			chars := res.Scaler.CharNames
			x, err := res.Analysis.Train.Matrix(chars)
			if err != nil {
				t.Fatal(err)
			}
			counters := make([]string, 0, len(res.Scaler.Models))
			for c := range res.Scaler.Models {
				counters = append(counters, c)
			}
			sort.Strings(counters)
			if len(counters) == 0 {
				t.Fatal("study modelled no counters")
			}
			for _, c := range counters {
				y, err := res.Analysis.Train.Column(c)
				if err != nil {
					t.Fatal(err)
				}
				n := mars.CheckAgainstOracle(t, x, y, chars, mars.DefaultConfig())
				t.Logf("%s: %d rows, %d candidate fits checked", c, len(y), n)
			}
		})
	}
}
