// Package rtree implements CART regression trees (Breiman et al., 1984),
// the base learner of BlackForest's random forest. Trees are grown by greedy
// binary splitting that minimizes the within-node sum of squared deviations
// (equation 3 of the paper), with the leaf prediction being the mean response
// of the region (equation 1).
package rtree

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"blackforest/internal/stats"
)

// Params controls tree growth.
type Params struct {
	// MinNodeSize is the minimum number of samples in a node eligible for
	// splitting; nodes smaller than this become leaves. The paper (and R's
	// randomForest in regression mode) uses 5.
	MinNodeSize int
	// MaxDepth caps tree depth; 0 means unlimited (grow to MinNodeSize).
	MaxDepth int
	// MTry is the number of predictors sampled (without replacement) as
	// split candidates at each node; 0 means all predictors (plain CART).
	MTry int
	// RNG supplies randomness for MTry subsetting. Required when MTry > 0.
	RNG *stats.RNG
}

// Matrix is a training set preprocessed for fast tree growth: a
// column-major copy of the rows, the responses, and per feature all row ids
// sorted by (feature value, id). Building it costs one sort per feature;
// every tree grown against it (Grower.Fit) then derives its in-bag
// orderings with a zero-comparison counting walk (see Grower.presort). A
// Matrix is immutable after construction and safe for concurrent use by
// any number of Growers.
type Matrix struct {
	nrows, nf int
	col       []float64 // col[f*nrows+row] = x[row][f]
	y         []float64 // response per row
	ord       []int32   // nf blocks of nrows ids, sorted by (value, id)
}

// NewMatrix validates rows x and responses y and preprocesses them for
// Grower.Fit. A NaN predictor is rejected: the presorted orderings need
// feature values to be totally ordered.
func NewMatrix(x [][]float64, y []float64) (*Matrix, error) {
	if len(x) == 0 {
		return nil, errors.New("rtree: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("rtree: %d rows but %d responses", len(x), len(y))
	}
	nf := len(x[0])
	if nf == 0 {
		return nil, errors.New("rtree: no features")
	}
	for i, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("rtree: ragged row %d (%d features, want %d)", i, len(row), nf)
		}
		for j, v := range row {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("rtree: NaN predictor %d in row %d", j, i)
			}
		}
	}
	nrows := len(x)
	m := &Matrix{
		nrows: nrows,
		nf:    nf,
		col:   make([]float64, nf*nrows),
		y:     slices.Clone(y),
		ord:   make([]int32, nf*nrows),
	}
	// Column-major copy of the design matrix: split scans read one
	// contiguous column instead of chasing a pointer per row.
	for i, row := range x {
		for j, v := range row {
			m.col[j*nrows+i] = v
		}
	}
	for f := 0; f < nf; f++ {
		block := m.ord[f*nrows : (f+1)*nrows]
		for i := range block {
			block[i] = int32(i)
		}
		fcol := m.col[f*nrows : (f+1)*nrows]
		slices.SortFunc(block, func(a, c int32) int {
			if fcol[a] < fcol[c] {
				return -1
			}
			if fcol[a] > fcol[c] {
				return 1
			}
			return int(a - c)
		})
	}
	return m, nil
}

// NumRows returns the number of training rows.
func (m *Matrix) NumRows() int { return m.nrows }

// NumFeatures returns the number of predictors.
func (m *Matrix) NumFeatures() int { return m.nf }

// Grower grows regression trees against a Matrix, keeping its scratch
// from one tree to the next so that a tree allocates only what it returns.
// A Grower is not safe for concurrent use: give each goroutine its own.
// The zero value is ready to use.
//
// The hot-path layout follows the sklearn/ranger presort-and-partition
// scheme: samples holds the in-bag row ids in recursion order, and ford
// holds, per feature, the same ids sorted by (feature value, id). Both are
// indexed by the same [start, end) node ranges; grow re-partitions them in
// place as it recurses, so split scans never sort. Growing a node
// allocates nothing.
type Grower struct {
	m *Matrix
	p Params
	n int // in-bag sample count (len(idx), with multiplicity)

	samples []int32   // row ids in recursion order; partitioned in place
	ford    []int32   // per-feature sorted orderings: nf blocks of n ids
	count   []int32   // per row id: in-bag multiplicity (zero between trees)
	tmp     []int32   // stable-partition scratch for right-side ids
	side    []uint8   // per row id: 1 if the current split sends it left
	cand    []int     // candidate-feature scratch (identity for plain CART)
	purity  []float64 // per feature: SSE decrease of its splits (returned)

	// The tree in the FlatForest layout, one entry per node in preorder:
	// split feature (-1 on a leaf), split threshold or leaf value, and
	// tree-local child indices (zero on a leaf).
	feature     []int32
	thresh      []float64
	left, right []int32
}

// resize returns s with length n, reallocating only when its capacity is
// too small. Reused contents are stale; callers overwrite what they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Fit grows a regression tree against m, using only the sample indices in
// idx (with multiplicity, as produced by bootstrap sampling); a nil idx
// uses every row. The tree comes back as a one-tree FlatForest whose nodes
// are in preorder (a node, then its left subtree, then its right subtree),
// together with its per-feature purity gains: the total SSE decrease of the
// splits on each feature (R's IncNodePurity). Join assembles a forest from
// such trees. The Grower never touches either result again.
func (g *Grower) Fit(m *Matrix, idx []int, p Params) (*FlatForest, []float64, error) {
	nf := m.nf
	if p.MinNodeSize <= 0 {
		p.MinNodeSize = 5
	}
	if p.MTry < 0 || p.MTry > nf {
		return nil, nil, fmt.Errorf("rtree: mtry %d out of range [0,%d]", p.MTry, nf)
	}
	if p.MTry > 0 && p.RNG == nil {
		return nil, nil, errors.New("rtree: MTry > 0 requires an RNG")
	}
	if idx == nil {
		idx = make([]int, m.nrows)
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return nil, nil, errors.New("rtree: empty sample index set")
	}

	n := len(idx)
	g.m, g.p, g.n = m, p, n
	g.samples = resize(g.samples, n)
	g.ford = resize(g.ford, nf*n)
	g.count = resize(g.count, m.nrows)
	g.tmp = resize(g.tmp, n)
	g.side = resize(g.side, m.nrows)
	g.cand = resize(g.cand, nf)
	g.purity = make([]float64, nf)
	// A split never leaves a side empty, so a tree over n samples has at
	// most n leaves and 2n-1 nodes: node arrays sized at that bound never
	// grow.
	maxNodes := 2*n - 1
	g.feature = resize(g.feature, maxNodes)[:0]
	g.thresh = resize(g.thresh, maxNodes)[:0]
	g.left = resize(g.left, maxNodes)[:0]
	g.right = resize(g.right, maxNodes)[:0]
	for i, v := range idx {
		if v < 0 || v >= m.nrows {
			return nil, nil, fmt.Errorf("rtree: sample index %d out of range [0,%d)", v, m.nrows)
		}
		g.samples[i] = int32(v)
	}
	if p.MTry == 0 || p.MTry >= nf {
		// Plain CART: the candidate set is the identity for every node.
		for i := range g.cand {
			g.cand[i] = i
		}
	}
	g.presort()
	g.grow(0, n, 0)
	return &FlatForest{
		nFeatures: nf,
		roots:     []int32{0},
		feature:   slices.Clone(g.feature),
		thresh:    slices.Clone(g.thresh),
		left:      slices.Clone(g.left),
		right:     slices.Clone(g.right),
	}, g.purity, nil
}

// presort builds, for every feature, the in-bag ids sorted by (feature
// value, id). That is a total order, so the split scans' order, and with
// it every running sum, does not depend on any sort algorithm.
func (g *Grower) presort() {
	m := g.m
	for _, id := range g.samples {
		g.count[id]++
	}
	for f := 0; f < m.nf; f++ {
		// Derive the in-bag ordering from the Matrix's full-row ordering
		// by multiplicity expansion: walking all rows in (value, id) order
		// and emitting each id count[id] times yields exactly the in-bag
		// multiset sorted by (value, id) — no comparisons per tree.
		dst := g.ford[f*g.n : (f+1)*g.n]
		w := 0
		for _, id := range m.ord[f*m.nrows : (f+1)*m.nrows] {
			for c := g.count[id]; c > 0; c-- {
				dst[w] = id
				w++
			}
		}
	}
	for _, id := range g.samples {
		g.count[id] = 0
	}
}

// grow builds the subtree over samples[start:end] at the given depth and
// returns the node's index in the tree.
func (g *Grower) grow(start, end, depth int) int32 {
	y := g.m.y
	var sum float64
	for _, id := range g.samples[start:end] {
		sum += y[id]
	}
	n := end - start
	mean := sum / float64(n)
	// The node is a leaf holding its mean response until a split is found.
	me := int32(len(g.feature))
	g.feature = append(g.feature, -1)
	g.thresh = append(g.thresh, mean)
	g.left = append(g.left, 0)
	g.right = append(g.right, 0)

	if !g.splittable(n, depth) {
		return me
	}

	feat, thresh, gain, ok := g.bestSplit(start, end, mean)
	if !ok {
		return me
	}

	fcol := g.m.col[feat*g.m.nrows:]
	nl := 0
	for _, id := range g.samples[start:end] {
		var goLeft uint8
		if fcol[id] <= thresh {
			goLeft = 1
		}
		g.side[id] = goLeft
		nl += int(goLeft)
	}
	if nl == 0 || nl == n {
		return me // degenerate split; keep as leaf
	}

	// Stable partition: recursion order and every feature's sorted order
	// survive the split, so child nodes need no re-sorting. No ordering is
	// kept for children that are leaves by size or depth.
	g.partition(g.samples[start:end], nl)
	if g.splittable(nl, depth+1) || g.splittable(n-nl, depth+1) {
		for f := 0; f < g.m.nf; f++ {
			g.partition(g.ford[f*g.n+start:f*g.n+end], nl)
		}
	}

	g.purity[feat] += gain
	l := g.grow(start, start+nl, depth+1)
	r := g.grow(start+nl, end, depth+1)
	g.feature[me], g.thresh[me] = int32(feat), thresh
	g.left[me], g.right[me] = l, r
	return me
}

// splittable reports whether a node of n samples at the given depth may
// be split: nodes below twice MinNodeSize or at MaxDepth are leaves.
func (g *Grower) splittable(n, depth int) bool {
	return n >= g.p.MinNodeSize*2 && (g.p.MaxDepth <= 0 || depth < g.p.MaxDepth)
}

// partition stably moves the ids flagged in side to the front of seg,
// preserving relative order on both sides. nl is the left-side count.
// Both stores are unconditional (the left store at w never clobbers an
// unread slot because w never exceeds the read cursor), which keeps the
// loop free of data-dependent branches — side flags are effectively random,
// so a branching version mispredicts half the time.
func (g *Grower) partition(seg []int32, nl int) {
	tmp := g.tmp
	w, r := 0, 0
	for _, id := range seg {
		s := int(g.side[id])
		seg[w] = id
		tmp[r] = id
		w += s
		r += 1 - s
	}
	copy(seg[nl:], tmp[:r])
}

// bestSplit scans candidate features for the split minimizing the summed
// within-child SSE. It returns the feature, threshold, the SSE decrease
// relative to the unsplit node, and whether any valid split was found.
// Each candidate scans its presorted ford range with running sums.
func (g *Grower) bestSplit(start, end int, mean float64) (feat int, thresh, gain float64, ok bool) {
	y := g.m.y
	n := end - start
	var parentSSE float64
	for _, id := range g.samples[start:end] {
		d := y[id] - mean
		parentSSE += d * d
	}
	if parentSSE <= 0 {
		return 0, 0, 0, false // node is pure
	}

	candidates := g.candidateFeatures()
	bestSSE := math.Inf(1)
	for _, f := range candidates {
		fcol := g.m.col[f*g.m.nrows:]
		ids := g.ford[f*g.n+start : f*g.n+end]

		// Scan splits with running sums: left prefix vs right suffix.
		var sumL, sqL float64
		sumR, sqR := 0.0, 0.0
		for _, id := range ids {
			yi := y[id]
			sumR += yi
			sqR += yi * yi
		}
		v := fcol[ids[0]]
		for k := 0; k < n-1; k++ {
			yi := y[ids[k]]
			sumL += yi
			sqL += yi * yi
			sumR -= yi
			sqR -= yi * yi
			vNext := fcol[ids[k+1]]
			// Cannot split between identical feature values.
			if v != vNext {
				nl, nr := float64(k+1), float64(n-k-1)
				sse := (sqL - sumL*sumL/nl) + (sqR - sumR*sumR/nr)
				if sse < bestSSE {
					bestSSE = sse
					feat = f
					thresh = (v + vNext) / 2
					ok = true
				}
			}
			v = vNext
		}
	}
	if !ok {
		return 0, 0, 0, false
	}
	gain = parentSSE - bestSSE
	if gain <= 0 {
		return 0, 0, 0, false
	}
	return feat, thresh, gain, true
}

// candidateFeatures returns the feature indices to consider at this node:
// all of them for plain CART, or MTry sampled without replacement for RF.
// It reuses the Grower's cand buffer; the MTry path consumes the RNG
// stream exactly as SampleWithoutReplacement (Perm then truncate) did.
func (g *Grower) candidateFeatures() []int {
	if g.p.MTry == 0 || g.p.MTry >= g.m.nf {
		return g.cand
	}
	g.p.RNG.PermInto(g.cand)
	return g.cand[:g.p.MTry]
}
