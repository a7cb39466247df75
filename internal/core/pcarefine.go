package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"blackforest/internal/pca"
)

// PCARefinement is stage 4 of the pipeline: a PCA over the predictors with
// enough components retained to reach the configured variance target, plus
// the factor-loading interpretation aids the paper reads component meaning
// from ("PC1 is related to memory intensity…, PC2 to MIMD and ILP
// parallelism…").
type PCARefinement struct {
	PCA *pca.Result
	// Components is the number of retained components.
	Components int
	// ExplainedVariance is the cumulative variance share of the retained
	// components.
	ExplainedVariance float64
	// Loadings[k] are the variables most loaded on retained component k,
	// strongest first (signed values).
	Loadings [][]pca.Loading
	// Labels[k] is a heuristic interpretation of component k derived
	// from its dominant variables.
	Labels []string
}

// PCARefine runs the PCA refinement over the analysis's predictors
// (excluding problem characteristics, which are inputs rather than
// measured behavior, unless includeChars is true).
func (a *Analysis) PCARefine(includeChars bool) (*PCARefinement, error) {
	var vars []string
	for _, n := range a.Predictors {
		if !includeChars && isCharacteristic(n) {
			continue
		}
		vars = append(vars, n)
	}
	if len(vars) < 2 {
		return nil, fmt.Errorf("core: only %d variables available for PCA", len(vars))
	}
	x, err := a.Frame.Matrix(vars)
	if err != nil {
		return nil, err
	}
	res, err := pca.Fit(x, vars)
	if err != nil {
		return nil, err
	}

	k := res.ComponentsFor(a.cfg.PCAVariance)
	ref := &PCARefinement{PCA: res, Components: k}
	for _, share := range res.ExplainedVariance()[:k] {
		ref.ExplainedVariance += share
	}
	for c := 0; c < k; c++ {
		ld, err := res.ComponentLoadings(c)
		if err != nil {
			return nil, err
		}
		ref.Loadings = append(ref.Loadings, ld)
		ref.Labels = append(ref.Labels, labelComponent(ld))
	}
	return ref, nil
}

// componentThemes maps counter-name fragments to the interpretation themes
// the paper assigns to components (§5.2: memory intensity, MIMD/ILP
// parallelism, SIMD efficiency, memory subsystem throughput).
var componentThemes = []struct {
	theme    string
	patterns []string
}{
	{"memory intensity", []string{"gld_request", "gst_request", "shared_load", "shared_store", "l2_read_transactions", "l2_write_transactions", "global_store_transaction", "l1_global_load"}},
	{"MIMD and ILP parallelism", []string{"inst_executed", "inst_issued", "ipc", "issue_slot_utilization", "achieved_occupancy", "inst_replay_overhead", "shared_replay_overhead"}},
	{"SIMD efficiency", []string{"warp_execution_efficiency", "divergent_branch", "branch"}},
	{"memory subsystem throughput", []string{"throughput", "ldst_fu_utilization", "_efficiency"}},
}

// labelComponent names a component after the theme its strongest loadings
// belong to.
func labelComponent(loadings []pca.Loading) string {
	scores := make(map[string]float64)
	limit := len(loadings)
	if limit > 6 {
		limit = 6
	}
	for _, ld := range loadings[:limit] {
		for _, th := range componentThemes {
			for _, p := range th.patterns {
				if strings.Contains(ld.Variable, p) {
					scores[th.theme] += math.Abs(ld.Value)
					break
				}
			}
		}
	}
	if len(scores) == 0 {
		return "mixed"
	}
	type kv struct {
		k string
		v float64
	}
	ranked := make([]kv, 0, len(scores))
	for k, v := range scores {
		ranked = append(ranked, kv{k, v})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].v != ranked[j].v {
			return ranked[i].v > ranked[j].v
		}
		return ranked[i].k < ranked[j].k
	})
	return ranked[0].k
}

// isCharacteristic reports whether a predictor is a problem or machine
// characteristic rather than a measured counter.
func isCharacteristic(name string) bool {
	switch name {
	case "size", "block_size", "wsched", "freq", "smp", "rco", "mbw", "l1c", "l2c":
		return true
	}
	return false
}
