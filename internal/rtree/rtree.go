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
// column-major copy of the rows, the responses, per feature all row ids
// sorted by (feature value, id), and per feature its conflict runs — the
// runs of equal values whose rows do not all share one response. Building
// it costs one sort per feature; every tree grown against it (Grower.Fit)
// then derives its in-bag orderings with a zero-comparison counting walk
// and checks only the conflict rows for tie safety (see Grower.presort). A
// Matrix is immutable after construction and safe for concurrent use by
// any number of Growers.
type Matrix struct {
	nrows, nf int
	col       []float64 // col[f*nrows+row] = x[row][f]
	y         []float64 // response per row
	ord       []int32   // nf blocks of nrows ids, sorted by (value, id)
	runs      []run     // conflict runs, feature by feature, as spans of ord
	featRuns  []int     // feature f's conflict runs are runs[featRuns[f]:featRuns[f+1]]
}

// run is the span ord[lo:hi] of one conflict run.
type run struct{ lo, hi int }

// NewMatrix validates rows x and responses y and preprocesses them for
// Grower.Fit. A NaN predictor is rejected: the presorted orderings and
// the conflict runs need feature values to be totally ordered.
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
		nrows:    nrows,
		nf:       nf,
		col:      make([]float64, nf*nrows),
		y:        slices.Clone(y),
		ord:      make([]int32, nf*nrows),
		featRuns: make([]int, nf+1),
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
		base := f * nrows
		// (value, id) is a strict total order over distinct ids, so the
		// result is independent of the sorting algorithm — stable across
		// Go releases by construction.
		slices.SortFunc(block, func(a, c int32) int {
			va, vc := m.col[base+int(a)], m.col[base+int(c)]
			if va < vc {
				return -1
			}
			if va > vc {
				return 1
			}
			return int(a - c)
		})
		// Equal values are adjacent in the ordering; keep each run whose
		// responses are not all equal to its first row's.
		for lo := 0; lo < nrows; {
			v, y0 := m.col[base+int(block[lo])], m.y[block[lo]]
			hi, conflict := lo+1, false
			for ; hi < nrows && m.col[base+int(block[hi])] == v; hi++ {
				conflict = conflict || m.y[block[hi]] != y0
			}
			if conflict {
				m.runs = append(m.runs, run{base + lo, base + hi})
			}
			lo = hi
		}
		m.featRuns[f+1] = len(m.runs)
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
// holds, per safe feature, the same ids sorted by that feature's value.
// Both are indexed by the same [start, end) node ranges; grow re-partitions
// them in place as it recurses, so split scans on safe features never sort.
// Features whose tied values carry unequal in-bag responses sort per node
// instead (see presort for why). Growing a node allocates nothing.
type Grower struct {
	m *Matrix
	p Params
	n int // in-bag sample count (len(idx), with multiplicity)

	samples []int32   // row ids in recursion order; partitioned in place
	ford    []int32   // safe features' sorted orderings: nf blocks of n ids
	count   []int32   // per row id: in-bag multiplicity (zero between trees)
	safe    []bool    // per feature: presorted path is bit-exact (see presort)
	pairs   []pair    // per-node (value, id) buffer a candidate scan reads
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

// pair is one sample of a node in a feature's scan order: the sample's
// feature value beside its row id.
type pair struct {
	v  float64
	id int32
}

// byValue is the seed's split-sort comparator: feature value only,
// ascending, so tied values stay wherever pdqsort leaves them.
func byValue(a, c pair) int {
	if a.v < c.v {
		return -1
	}
	if a.v > c.v {
		return 1
	}
	return 0
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
	g.safe = resize(g.safe, nf)
	g.pairs = resize(g.pairs, n)
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

// presort classifies each feature as safe or unsafe for the presorted path
// and builds, for every safe feature, the in-bag ids sorted by feature
// value (ties broken by row id for a deterministic total order).
//
// Bit-identity argument. The seed implementation re-sorted each node's ids
// with sort.Slice (value-only comparator), so the order of ids *within a
// run of equal values* was whatever pdqsort produced at that node; the split
// scan's running sums add y in that order, and float addition is not
// associative. The presorted ordering has a different (stable) tie order,
// which is harmless exactly when every run of equal feature values carries
// equal in-bag responses: then the scan's y sequence is identical position
// by position regardless of tie order, and every sum, SSE, threshold, and
// comparison reproduces the seed bit for bit. Bootstrap-duplicated rows
// always satisfy this (same row, same y), and so does every run the Matrix
// did not record as a conflict run, so only the conflict runs' rows are
// checked. Features that violate it (distinct in-bag rows colliding on a
// value with different y — common in raw GPU counter columns) are unsafe,
// and bestSplit sorts their (value, id) pairs per node with the exact seed
// pdqsort permutation (slices.SortFunc — same generated algorithm as
// sort.Slice, on the same initial order with an equivalent comparator), so
// those scans are bit-identical too, just without the presort savings.
func (g *Grower) presort() {
	m := g.m
	for _, id := range g.samples {
		g.count[id]++
	}
	for f := 0; f < m.nf; f++ {
		g.safe[f] = g.inBagTiesAgree(m.runs[m.featRuns[f]:m.featRuns[f+1]])
		if !g.safe[f] {
			continue
		}
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

// inBagTiesAgree reports whether, in every one of a feature's conflict
// runs, the in-bag rows all share one response.
func (g *Grower) inBagTiesAgree(runs []run) bool {
	for _, r := range runs {
		seen, y0 := false, 0.0
		for _, id := range g.m.ord[r.lo:r.hi] {
			if g.count[id] == 0 {
				continue
			}
			if !seen {
				seen, y0 = true, g.m.y[id]
			} else if g.m.y[id] != y0 {
				return false
			}
		}
	}
	return true
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

	// Stable partition: recursion order and every safe feature's sorted
	// order survive the split, so child nodes need no re-sorting. Unsafe
	// features sort per node anyway, so they keep no ordering, and no
	// ordering is kept for children that are leaves by size or depth.
	g.partition(g.samples[start:end], nl)
	if g.splittable(nl, depth+1) || g.splittable(n-nl, depth+1) {
		for f, safe := range g.safe {
			if safe {
				g.partition(g.ford[f*g.n+start:f*g.n+end], nl)
			}
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
// Each candidate fills the node's (value, id) pairs in scan order — from
// the presorted ford range for a safe feature, by a per-node sort for an
// unsafe one — and scans them with running sums.
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
	pairs := g.pairs[:n]
	bestSSE := math.Inf(1)
	for _, f := range candidates {
		fcol := g.m.col[f*g.m.nrows:]
		if g.safe[f] {
			for k, id := range g.ford[f*g.n+start : f*g.n+end] {
				pairs[k] = pair{fcol[id], id}
			}
		} else {
			// Exact seed order: same initial order (node recursion order),
			// same comparisons, same pdqsort — same permutation.
			for k, id := range g.samples[start:end] {
				pairs[k] = pair{fcol[id], id}
			}
			slices.SortFunc(pairs, byValue)
		}

		// Scan splits with running sums: left prefix vs right suffix.
		var sumL, sqL float64
		sumR, sqR := 0.0, 0.0
		for _, s := range pairs {
			yi := y[s.id]
			sumR += yi
			sqR += yi * yi
		}
		for k := 0; k < n-1; k++ {
			yi := y[pairs[k].id]
			sumL += yi
			sqL += yi * yi
			sumR -= yi
			sqR -= yi * yi
			v, vNext := pairs[k].v, pairs[k+1].v
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
