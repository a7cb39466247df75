// Package forest implements random forest regression (Breiman, 2001) as
// used by BlackForest: bootstrap-bagged CART trees with per-node feature
// subsetting, out-of-bag (OOB) error estimation, permutation variable
// importance (%IncMSE), node-purity importance (IncNodePurity), and partial
// dependence profiles.
//
// The defaults mirror R's randomForest in regression mode: 500 trees,
// mtry = max(p/3, 1), node size 5.
package forest

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"blackforest/internal/rtree"
	"blackforest/internal/stats"
)

// Config controls forest training.
type Config struct {
	// NTrees is the number of trees grown (default 500).
	NTrees int
	// MTry is the number of predictors tried at each split
	// (default max(p/3, 1), the regression-mode convention).
	MTry int
	// MinNodeSize is the minimal splittable node size (default 5).
	MinNodeSize int
	// MaxDepth caps tree depth; 0 means unlimited.
	MaxDepth int
	// Seed seeds the deterministic RNG driving bootstrapping and feature
	// subsetting. Two fits with the same seed and data are identical.
	Seed uint64
	// Workers bounds the goroutines of every parallel step: growing the
	// trees, permutation importance, partial dependence and PredictAll.
	// Zero or less means runtime.NumCPU().
	Workers int
}

// DefaultConfig returns the paper's forest configuration.
func DefaultConfig() Config {
	return Config{NTrees: 500, MinNodeSize: 5}
}

// Forest is a fitted random forest regression model.
//
// Its trees are one flat node array (rtree.FlatForest): Fit joins the trees
// the CART builder grows straight into that layout, and Import decodes
// either bundle form into it. Predict and PredictAll walk the whole forest
// on it; out-of-bag error, permutation importance and partial dependence
// walk it tree by tree (FlatForest.PredictTree).
type Forest struct {
	flat     *rtree.FlatForest
	oobIdx   [][]int // per-tree out-of-bag sample indices
	names    []string
	x        [][]float64 // retained training design matrix
	y        []float64   // retained training response
	cfg      Config
	oobPred  []float64 // OOB-averaged prediction per training sample
	oobMSE   float64
	varExpl  float64
	rawImp   []float64 // mean OOB MSE increase per feature
	impSE    []float64 // standard error of the per-tree increases
	purity   []float64 // total SSE decrease per feature
	minResp  float64
	maxResp  float64
	nSamples int
}

// Fit trains a random forest on design matrix x (rows are observations),
// response y, and predictor names (one per column of x).
func Fit(x [][]float64, y []float64, names []string, cfg Config) (*Forest, error) {
	if len(x) == 0 {
		return nil, errors.New("forest: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("forest: %d rows but %d responses", len(x), len(y))
	}
	p := len(x[0])
	if len(names) != p {
		return nil, fmt.Errorf("forest: %d names for %d predictors", len(names), p)
	}
	if cfg.NTrees <= 0 {
		cfg.NTrees = 500
	}
	if cfg.MTry <= 0 {
		cfg.MTry = p / 3
		if cfg.MTry < 1 {
			cfg.MTry = 1
		}
	}
	if cfg.MTry > p {
		return nil, fmt.Errorf("forest: mtry %d exceeds predictor count %d", cfg.MTry, p)
	}
	if cfg.MinNodeSize <= 0 {
		cfg.MinNodeSize = 5
	}

	// Reject non-finite inputs up front: a NaN/Inf cell (e.g. a buggy
	// imputation of a degraded collection) would otherwise poison split
	// scores silently and fit a garbage tree.
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("forest: row %d has %d predictors, want %d", i, len(row), p)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("forest: non-finite predictor %s in row %d", names[j], i)
			}
		}
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil, fmt.Errorf("forest: non-finite response in row %d", i)
		}
	}

	// Copy the training data: the forest retains it for OOB error,
	// permutation importance, and partial dependence, all of which would
	// silently corrupt if the caller mutated its slices after Fit.
	f := &Forest{
		names:    append([]string(nil), names...),
		x:        copyRowsFlat(x),
		y:        append([]float64(nil), y...),
		cfg:      cfg,
		nSamples: len(x),
	}
	f.minResp, f.maxResp = stats.Min(f.y), stats.Max(f.y)

	trees, gains, oobIdx, seeds, err := grow(f.x, f.y, cfg)
	if err != nil {
		return nil, err
	}
	f.oobIdx = oobIdx
	if f.flat, err = rtree.Join(trees); err != nil {
		return nil, err
	}

	f.computeOOB()
	f.computeImportance(seeds, gains)
	return f, nil
}

// grow grows cfg.NTrees trees on validated training data, each on its own
// bootstrap sample, under a config Fit has completed with its defaults. It
// returns the trees (one-tree flat forests, for Join), each tree's purity
// gains, each tree's out-of-bag row indices, and each tree's RNG seed
// (importance derives its permutation streams from it).
func grow(x [][]float64, y []float64, cfg Config) (trees []*rtree.FlatForest, gains [][]float64, oobIdx [][]int, seeds []uint64, err error) {
	// Pre-derive one RNG seed per tree from the master seed so tree
	// construction is order-independent and parallelizable.
	master := stats.NewRNG(cfg.Seed)
	seeds = make([]uint64, cfg.NTrees)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	// Preprocess the design matrix once (column-major copy + per-feature
	// sorted orderings); every tree shares it, so growing the forest does
	// no per-tree sorting on presortable features.
	m, err := rtree.NewMatrix(x)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	trees = make([]*rtree.FlatForest, cfg.NTrees)
	gains = make([][]float64, cfg.NTrees)
	oobIdx = make([][]int, cfg.NTrees)
	errs := make([]error, cfg.NTrees)
	forEach(cfg.Workers, cfg.NTrees, func() func(int) {
		return func(t int) {
			rng := stats.NewRNG(seeds[t])
			inBag, oob := rng.Bootstrap(len(y))
			trees[t], gains[t], errs[t] = rtree.FitMatrix(m, y, inBag, rtree.Params{
				MinNodeSize: cfg.MinNodeSize,
				MaxDepth:    cfg.MaxDepth,
				MTry:        cfg.MTry,
				RNG:         rng,
			})
			oobIdx[t] = oob
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return trees, gains, oobIdx, seeds, nil
}

// forEach calls the function worker returns for every index in [0, n), on
// at most workers goroutines (all CPUs when workers <= 0) that take indices
// in increasing order from a shared counter. worker runs once per
// goroutine, so each goroutine can own its scratch. With one worker, or one
// index, everything runs inline on the calling goroutine. Callers write
// only per-index outputs, so results never depend on the worker count.
func forEach(workers, n int, worker func() func(i int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, n)
	if workers == 1 {
		do := worker()
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do := worker()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// copyRowsFlat deep-copies a design matrix into one flat backing array.
func copyRowsFlat(x [][]float64) [][]float64 {
	if len(x) == 0 {
		return nil
	}
	p := len(x[0])
	flat := make([]float64, len(x)*p)
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = flat[i*p : (i+1)*p]
		copy(out[i], row)
	}
	return out
}

// forEachGridPoint evaluates fn for every partial-dependence grid point on
// the forest's workers. Each worker receives its own mutable copy of the
// training rows plus a per-tree scratch slice, and every grid point writes
// only its own output index, so results are bit-identical for any worker
// count.
func (f *Forest) forEachGridPoint(grid []float64, fn func(g int, v float64, rows [][]float64, perTree []float64)) {
	forEach(f.cfg.Workers, len(grid), func() func(int) {
		rows := copyRowsFlat(f.x)
		perTree := make([]float64, f.flat.NumTrees())
		return func(g int) { fn(g, grid[g], rows, perTree) }
	})
}

// computeOOB fills the OOB predictions and the derived error statistics.
func (f *Forest) computeOOB() {
	sum := make([]float64, f.nSamples)
	cnt := make([]int, f.nSamples)
	for t, oob := range f.oobIdx {
		for _, i := range oob {
			sum[i] += f.flat.PredictTree(t, f.x[i])
			cnt[i]++
		}
	}
	f.oobPred = make([]float64, f.nSamples)
	var sse float64
	var used int
	for i := range sum {
		if cnt[i] == 0 {
			f.oobPred[i] = math.NaN()
			continue
		}
		f.oobPred[i] = sum[i] / float64(cnt[i])
		d := f.oobPred[i] - f.y[i]
		sse += d * d
		used++
	}
	if used > 0 {
		f.oobMSE = sse / float64(used)
	}
	if v := stats.Variance(f.y); v > 0 {
		// randomForest reports %Var explained as 1 − MSE_OOB/Var(y).
		f.varExpl = 1 - f.oobMSE/v
	}
}

// computeImportance computes permutation importance tree by tree, exactly
// as described in §4.1.1 of the paper: for each tree, the OOB MSE is
// compared with the OOB MSE after permuting one predictor's values. gains
// holds each tree's per-feature purity gain.
func (f *Forest) computeImportance(seeds []uint64, gains [][]float64) {
	p := len(f.names)
	sumInc := make([]float64, p)
	sumIncSq := make([]float64, p)
	trees := 0

	// Per-tree increases are computed in parallel but reduced sequentially
	// in tree order: float addition is not associative, so summing in
	// goroutine-completion order would make the low bits of the importance
	// scores (and with them near-tied rankings) run-dependent.
	incs := make([][]float64, len(seeds))
	forEach(f.cfg.Workers, len(incs), func() func(int) {
		return func(t int) {
			if len(f.oobIdx[t]) > 0 {
				incs[t] = f.treeImportance(t, stats.NewRNG(seeds[t]^0x5bf03635), gains[t])
			}
		}
	})
	for _, inc := range incs {
		if inc == nil {
			continue
		}
		for j := range inc {
			sumInc[j] += inc[j]
			sumIncSq[j] += inc[j] * inc[j]
		}
		trees++
	}

	f.rawImp = make([]float64, p)
	f.impSE = make([]float64, p)
	f.purity = make([]float64, p)
	if trees == 0 {
		return
	}
	n := float64(trees)
	for j := 0; j < p; j++ {
		mean := sumInc[j] / n
		f.rawImp[j] = mean
		varJ := sumIncSq[j]/n - mean*mean
		if varJ < 0 {
			varJ = 0
		}
		f.impSE[j] = math.Sqrt(varJ / n)
	}
	for _, g := range gains {
		for j := range g {
			f.purity[j] += g[j]
		}
	}
}

// treeImportance returns, for tree t, the increase in OOB MSE caused by
// permuting each predictor in turn. used is the tree's per-feature purity
// gain, zero exactly for the features the tree never splits on.
func (f *Forest) treeImportance(t int, rng *stats.RNG, used []float64) []float64 {
	oob := f.oobIdx[t]
	p := len(f.names)

	var baseSSE float64
	for _, i := range oob {
		d := f.flat.PredictTree(t, f.x[i]) - f.y[i]
		baseSSE += d * d
	}
	baseMSE := baseSSE / float64(len(oob))

	// Copy the OOB rows once; for each predictor, overwrite just that
	// column with permuted values and restore it afterwards. The buffer
	// passed to PredictTree holds exactly the values the seed implementation
	// assembled per row (original row with column j replaced), but the
	// O(p²·n) per-feature row copies collapse to O(p·n) total.
	inc := make([]float64, p)
	perm := make([]int, len(oob))
	flat := make([]float64, len(oob)*p)
	rows := make([][]float64, len(oob))
	for k, i := range oob {
		rows[k] = flat[k*p : (k+1)*p]
		copy(rows[k], f.x[i])
	}
	for j := 0; j < p; j++ {
		copy(perm, oob)
		rng.ShuffleInts(perm)
		if used[j] == 0 {
			// The tree never splits on j, so permuting it cannot change a
			// single prediction: the full computation would reproduce
			// baseSSE bit for bit and yield exactly 0. The shuffle above
			// still runs to keep the RNG stream aligned.
			continue
		}
		var sse float64
		for k, i := range oob {
			save := rows[k][j]
			rows[k][j] = f.x[perm[k]][j]
			d := f.flat.PredictTree(t, rows[k]) - f.y[i]
			rows[k][j] = save
			sse += d * d
		}
		inc[j] = sse/float64(len(oob)) - baseMSE
	}
	return inc
}

// Predict returns the forest prediction (mean of tree predictions) for x.
// It routes through the flat engine and, like FlatForest.PredictTree,
// panics on a feature-count mismatch; serving paths should use
// PredictVector, which returns an error instead.
func (f *Forest) Predict(x []float64) float64 {
	v, err := f.flat.Predict(x)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// PredictVector is Predict with malformed input reported as an error rather
// than a panic — the serving-path entry point.
func (f *Forest) PredictVector(x []float64) (float64, error) {
	return f.flat.Predict(x)
}

// Engine names the active prediction engine: "flat" for the contiguous
// node-array engine, with the bundle value encoding appended (e.g.
// "flat(dict16)") when the forest was decoded from a bundle's flat
// encoding. A fitted forest, and one read from an older tree-form bundle,
// report plain "flat".
func (f *Forest) Engine() string {
	if enc := f.flat.Encoding(); enc != "" {
		return "flat(" + enc + ")"
	}
	return "flat"
}

// predictBlockRows is the row-block width of the tree-major batch mode:
// each worker walks every tree across one block of this many rows, keeping
// the current tree's node array cache-hot for the whole block.
const predictBlockRows = 256

// PredictAll returns predictions for each row of xs. Batches run tree-major
// on the flat engine (every tree visits a whole row block before the next
// tree starts) and batches of more than one block are spread block-wise
// over the forest's workers (Config.Workers, or all CPUs for loaded
// models); a one-block batch runs inline. Per row, tree contributions
// accumulate in tree order, so the result is bit-identical to calling
// Predict per row, for every worker count and block size. A row with the
// wrong feature count fails the whole batch with an error.
func (f *Forest) PredictAll(xs [][]float64) ([]float64, error) {
	out := make([]float64, len(xs))
	blocks := (len(xs) + predictBlockRows - 1) / predictBlockRows
	errs := make([]error, blocks)
	forEach(f.cfg.Workers, blocks, func() func(int) {
		return func(b int) {
			lo := b * predictBlockRows
			hi := min(lo+predictBlockRows, len(xs))
			errs[b] = f.flat.PredictBatch(xs[lo:hi], out[lo:hi])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// OOBMSE returns the out-of-bag mean squared error.
func (f *Forest) OOBMSE() float64 { return f.oobMSE }

// VarExplained returns the OOB pseudo-R² (1 − MSE_OOB / Var(y)),
// matching R randomForest's "% Var explained" (as a fraction).
func (f *Forest) VarExplained() float64 { return f.varExpl }

// NumTrees returns the number of trees in the forest.
func (f *Forest) NumTrees() int { return f.flat.NumTrees() }

// Names returns the predictor names.
func (f *Forest) Names() []string { return append([]string(nil), f.names...) }

// Importance is one predictor's importance record.
type Importance struct {
	Name string
	// IncMSE is the mean increase in OOB MSE when the predictor is
	// permuted (raw, unscaled).
	IncMSE float64
	// PctIncMSE is IncMSE divided by its standard error across trees —
	// R's %IncMSE with scale=TRUE. Zero when the SE is zero.
	PctIncMSE float64
	// IncNodePurity is the total decrease in node SSE from splits on the
	// predictor, summed over all trees.
	IncNodePurity float64
}

// VariableImportance returns per-predictor importance sorted by descending
// %IncMSE (ties broken by IncNodePurity, then name for determinism).
func (f *Forest) VariableImportance() []Importance {
	out := make([]Importance, len(f.names))
	for j, name := range f.names {
		imp := Importance{Name: name, IncMSE: f.rawImp[j], IncNodePurity: f.purity[j]}
		if f.impSE[j] > 0 {
			imp.PctIncMSE = f.rawImp[j] / f.impSE[j]
		}
		out[j] = imp
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].PctIncMSE != out[b].PctIncMSE {
			return out[a].PctIncMSE > out[b].PctIncMSE
		}
		if out[a].IncNodePurity != out[b].IncNodePurity {
			return out[a].IncNodePurity > out[b].IncNodePurity
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// TopPredictors returns the names of the k most important predictors.
func (f *Forest) TopPredictors(k int) []string {
	imp := f.VariableImportance()
	if k > len(imp) {
		k = len(imp)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = imp[i].Name
	}
	return out
}

// pdGrid is the preamble PartialDependence and PartialDependenceCI share:
// it returns the named predictor's column and gridSize (at least 2) points
// spanning the predictor's observed range.
func (f *Forest) pdGrid(name string, gridSize int) (j int, grid []float64, err error) {
	if f.x == nil {
		return 0, nil, errors.New("forest: partial dependence needs the training data (unavailable on a loaded model)")
	}
	j = slices.Index(f.names, name)
	if j < 0 {
		return 0, nil, fmt.Errorf("forest: no predictor %q", name)
	}
	col := make([]float64, f.nSamples)
	for i, row := range f.x {
		col[i] = row[j]
	}
	return j, stats.Linspace(stats.Min(col), stats.Max(col), max(gridSize, 2)), nil
}

// PartialDependenceCI extends PartialDependence with pointwise confidence
// bands (the paper's §7 suggestion: "Integrating confidence intervals into
// the partial dependence plots would help interpretation"): at each grid
// point, the per-tree partial-dependence values are summarized by their
// (1−level)/2 and (1+level)/2 quantiles — the spread of the ensemble's
// member opinions.
func (f *Forest) PartialDependenceCI(name string, gridSize int, level float64) (grid, response, lo, hi []float64, err error) {
	if level <= 0 || level >= 1 {
		level = 0.9
	}
	j, grid, err := f.pdGrid(name, gridSize)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	response = make([]float64, len(grid))
	lo = make([]float64, len(grid))
	hi = make([]float64, len(grid))

	f.forEachGridPoint(grid, func(g int, v float64, rows [][]float64, perTree []float64) {
		for i := range rows {
			rows[i][j] = v
		}
		for t := range perTree {
			var s float64
			for _, row := range rows {
				s += f.flat.PredictTree(t, row)
			}
			perTree[t] = s / float64(f.nSamples)
		}
		response[g] = stats.Mean(perTree)
		lo[g] = stats.Quantile(perTree, (1-level)/2)
		hi[g] = stats.Quantile(perTree, (1+level)/2)
	})
	return grid, response, lo, hi, nil
}

// PartialDependence returns the partial dependence profile of the named
// predictor: grid points spanning its observed range and, for each point v,
// the forest prediction averaged over the training set with that predictor
// forced to v (Friedman's partial dependence function).
func (f *Forest) PartialDependence(name string, gridSize int) (grid, response []float64, err error) {
	j, grid, err := f.pdGrid(name, gridSize)
	if err != nil {
		return nil, nil, err
	}
	response = make([]float64, len(grid))
	f.forEachGridPoint(grid, func(g int, v float64, rows [][]float64, _ []float64) {
		var s float64
		for i := range rows {
			rows[i][j] = v
			s += f.Predict(rows[i])
		}
		response[g] = s / float64(f.nSamples)
	})
	return grid, response, nil
}
