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
	"strings"

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

// node is one tree node in the flattened node array. Leaves have
// feature == -1.
type node struct {
	feature   int     // split feature index, or -1 for a leaf
	threshold float64 // split point s: x[feature] <= s goes left
	left      int32   // index of the left child in Tree.nodes
	right     int32   // index of the right child
	value     float64 // mean response of samples reaching this node
	count     int     // number of training samples at this node
}

// Tree is a fitted regression tree.
type Tree struct {
	nodes      []node
	nFeatures  int
	minResp    float64 // smallest training response (prediction lower bound)
	maxResp    float64 // largest training response (prediction upper bound)
	purityGain []float64
}

// Matrix is a training design matrix preprocessed for fast tree growth: a
// column-major copy of the rows plus, per feature, all row ids sorted by
// (feature value, id). Building it costs one sort per feature; every tree
// fitted against it (FitMatrix) then derives its in-bag orderings with a
// zero-comparison counting walk, so growing a whole forest performs no
// further sorting on safe features. A Matrix is immutable after
// construction and safe for concurrent FitMatrix calls.
type Matrix struct {
	nrows, nf int
	col       []float64 // col[f*nrows+row] = x[row][f]
	ord       []int32   // nf blocks of nrows ids, sorted by (value, id)
}

// NewMatrix validates rows x and preprocesses them for FitMatrix.
func NewMatrix(x [][]float64) (*Matrix, error) {
	if len(x) == 0 {
		return nil, errors.New("rtree: empty training set")
	}
	nf := len(x[0])
	if nf == 0 {
		return nil, errors.New("rtree: no features")
	}
	for i, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("rtree: ragged row %d (%d features, want %d)", i, len(row), nf)
		}
	}
	nrows := len(x)
	m := &Matrix{
		nrows: nrows,
		nf:    nf,
		col:   make([]float64, nf*nrows),
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
	}
	return m, nil
}

// NumRows returns the number of training rows.
func (m *Matrix) NumRows() int { return m.nrows }

// NumFeatures returns the number of predictors.
func (m *Matrix) NumFeatures() int { return m.nf }

// Fit grows a regression tree on rows X (each of equal length) and
// responses y, using only the sample indices in idx (with multiplicity, as
// produced by bootstrap sampling). If idx is nil, all rows are used.
//
// When fitting many trees on the same rows (a forest), build a Matrix once
// with NewMatrix and call FitMatrix per tree to share the preprocessing.
func Fit(x [][]float64, y []float64, idx []int, p Params) (*Tree, error) {
	if len(x) != 0 && len(x) != len(y) {
		return nil, fmt.Errorf("rtree: %d rows but %d responses", len(x), len(y))
	}
	m, err := NewMatrix(x)
	if err != nil {
		return nil, err
	}
	return FitMatrix(m, y, idx, p)
}

// FitMatrix grows a regression tree against a preprocessed Matrix. See Fit.
func FitMatrix(m *Matrix, y []float64, idx []int, p Params) (*Tree, error) {
	if m.nrows != len(y) {
		return nil, fmt.Errorf("rtree: %d rows but %d responses", m.nrows, len(y))
	}
	nf := m.nf
	if p.MinNodeSize <= 0 {
		p.MinNodeSize = 5
	}
	if p.MTry < 0 || p.MTry > nf {
		return nil, fmt.Errorf("rtree: mtry %d out of range [0,%d]", p.MTry, nf)
	}
	if p.MTry > 0 && p.RNG == nil {
		return nil, errors.New("rtree: MTry > 0 requires an RNG")
	}
	if idx == nil {
		idx = make([]int, m.nrows)
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return nil, errors.New("rtree: empty sample index set")
	}

	t := &Tree{nFeatures: nf, purityGain: make([]float64, nf)}
	t.minResp, t.maxResp = math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		if y[i] < t.minResp {
			t.minResp = y[i]
		}
		if y[i] > t.maxResp {
			t.maxResp = y[i]
		}
	}

	n := len(idx)
	b := &builder{
		y:       y,
		p:       p,
		tree:    t,
		m:       m,
		nrows:   m.nrows,
		n:       n,
		col:     m.col,
		samples: make([]int32, n),
		ford:    make([]int32, nf*n),
		safe:    make([]bool, nf),
		order:   make([]int32, n),
		tmp:     make([]int32, n),
		side:    make([]uint8, m.nrows),
		cand:    make([]int, nf),
	}
	for i, v := range idx {
		b.samples[i] = int32(v)
	}
	if p.MTry == 0 || p.MTry >= nf {
		// Plain CART: candidate set is always the identity; fill it once.
		for i := range b.cand {
			b.cand[i] = i
		}
	}
	// sortCmp reproduces the seed comparator (value-only, ascending) for the
	// per-node fallback sort. Built once per tree so sorting allocates nothing.
	b.sortCmp = func(a, c int32) int {
		va, vc := b.col[b.sortBase+int(a)], b.col[b.sortBase+int(c)]
		if va < vc {
			return -1
		}
		if va > vc {
			return 1
		}
		return 0
	}
	b.presort()
	b.grow(0, n, 0)
	return t, nil
}

// builder carries shared state during recursive growth.
//
// The hot-path layout follows the sklearn/ranger presort-and-partition
// scheme: samples holds the in-bag row ids in recursion order, and ford
// holds, per feature, the same ids sorted by that feature's value. Both are
// indexed by the same [start, end) node ranges; grow re-partitions them in
// place as it recurses, so split scans on presorted ("safe") features never
// sort. Features whose tied values carry unequal responses fall back to an
// exact per-node sort (see presort for why). All per-node scratch (order,
// tmp, side, cand) is preallocated once per tree — growing a node allocates
// nothing beyond the appended tree node itself.
type builder struct {
	y    []float64
	p    Params
	tree *Tree
	m    *Matrix

	nrows   int       // rows in the full design matrix
	n       int       // in-bag sample count (len(idx), with multiplicity)
	col     []float64 // column-major matrix: col[f*nrows+row] = x[row][f]
	samples []int32   // row ids in recursion order; partitioned in place
	ford    []int32   // per-feature sorted orderings: nf blocks of n ids
	safe    []bool    // per feature: presorted path is bit-exact (see presort)
	order   []int32   // per-node sort buffer for unsafe features
	tmp     []int32   // stable-partition scratch for right-side ids
	side    []uint8   // per row id: 1 if the current split sends it left
	cand    []int     // candidate-feature scratch (identity for plain CART)

	sortBase int                  // column offset for sortCmp
	sortCmp  func(a, c int32) int // fallback comparator (built once per tree)
}

// presort builds, for every feature, the in-bag ids sorted by feature value
// (ties broken by row id for a deterministic total order), and classifies
// each feature as safe or unsafe for the presorted path.
//
// Bit-identity argument. The seed implementation re-sorted each node's ids
// with sort.Slice (value-only comparator), so the order of ids *within a
// run of equal values* was whatever pdqsort produced at that node; the split
// scan's running sums add y in that order, and float addition is not
// associative. The presorted ordering has a different (stable) tie order,
// which is harmless exactly when every run of equal feature values carries
// equal responses: then the scan's y sequence is identical position by
// position regardless of tie order, and every sum, SSE, threshold, and
// comparison reproduces the seed bit for bit. Bootstrap-duplicated rows
// always satisfy this (same row, same y); continuous features with no
// cross-row collisions satisfy it vacuously. Features that violate it
// (distinct rows colliding on a value with different y — common in raw GPU
// counter columns) are marked unsafe, and bestSplit re-sorts them per node
// with the exact seed pdqsort permutation (slices.SortFunc — same generated
// algorithm as sort.Slice, on the same initial order with the same
// comparator), so those scans are bit-identical too, just without the
// presort savings.
func (b *builder) presort() {
	// Derive each feature's in-bag ordering from the Matrix's full-row
	// ordering by multiplicity expansion: walking all rows in (value, id)
	// order and emitting each id count[id] times yields exactly the in-bag
	// multiset sorted by (value, id) — no comparisons per tree.
	count := make([]int32, b.nrows)
	for _, id := range b.samples {
		count[id]++
	}
	for f := 0; f < b.tree.nFeatures; f++ {
		full := b.m.ord[f*b.nrows : (f+1)*b.nrows]
		dst := b.ford[f*b.n : (f+1)*b.n]
		base := f * b.nrows
		safe := true
		w := 0
		prevV, prevY := math.NaN(), 0.0
		for _, id := range full {
			c := count[id]
			if c == 0 {
				continue
			}
			for ; c > 0; c-- {
				dst[w] = id
				w++
			}
			// Safety check, fused into the walk: a value collision between
			// distinct in-bag rows with unequal responses breaks the
			// order-invariance of tied sums (duplicates of one row always
			// agree with themselves, so checking distinct ids suffices).
			v, yv := b.col[base+int(id)], b.y[id]
			if v == prevV && yv != prevY {
				safe = false
			}
			prevV, prevY = v, yv
		}
		b.safe[f] = safe
	}
}

// grow builds the subtree over samples[start:end] at the given depth and
// returns the node's index in the flattened array.
func (b *builder) grow(start, end, depth int) int32 {
	me := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: -1})

	var sum float64
	for _, id := range b.samples[start:end] {
		sum += b.y[id]
	}
	n := end - start
	mean := sum / float64(n)
	b.tree.nodes[me].value = mean
	b.tree.nodes[me].count = n

	if n < b.p.MinNodeSize*2 || (b.p.MaxDepth > 0 && depth >= b.p.MaxDepth) {
		return me
	}

	feat, thresh, gain, ok := b.bestSplit(start, end, mean)
	if !ok {
		return me
	}

	fbase := feat * b.nrows
	nl := 0
	for _, id := range b.samples[start:end] {
		var goLeft uint8
		if b.col[fbase+int(id)] <= thresh {
			goLeft = 1
		}
		b.side[id] = goLeft
		nl += int(goLeft)
	}
	if nl == 0 || nl == n {
		return me // degenerate split; keep as leaf
	}

	// Stable partition: recursion order and every safe feature's sorted
	// order survive the split, so child nodes need no re-sorting. Unsafe
	// features re-sort per node anyway, so their orderings are not kept up.
	b.partition(b.samples[start:end], nl)
	for f := 0; f < b.tree.nFeatures; f++ {
		if b.safe[f] {
			b.partition(b.ford[f*b.n+start:f*b.n+end], nl)
		}
	}

	b.tree.purityGain[feat] += gain
	l := b.grow(start, start+nl, depth+1)
	r := b.grow(start+nl, end, depth+1)
	b.tree.nodes[me].feature = feat
	b.tree.nodes[me].threshold = thresh
	b.tree.nodes[me].left = l
	b.tree.nodes[me].right = r
	return me
}

// partition stably moves the ids flagged in side to the front of seg,
// preserving relative order on both sides. nl is the left-side count.
// Both stores are unconditional (the left store at w never clobbers an
// unread slot because w never exceeds the read cursor), which keeps the
// loop free of data-dependent branches — side flags are effectively random,
// so a branching version mispredicts half the time.
func (b *builder) partition(seg []int32, nl int) {
	tmp := b.tmp
	w, r := 0, 0
	for _, id := range seg {
		s := int(b.side[id])
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
// Each candidate scan walks the presorted ford range for this node, so the
// cost is O(n) per feature with cache-linear column reads — no sorting.
func (b *builder) bestSplit(start, end int, mean float64) (feat int, thresh, gain float64, ok bool) {
	n := end - start
	var parentSSE float64
	for _, id := range b.samples[start:end] {
		d := b.y[id] - mean
		parentSSE += d * d
	}
	if parentSSE <= 0 {
		return 0, 0, 0, false // node is pure
	}

	candidates := b.candidateFeatures()
	bestSSE := math.Inf(1)
	for _, f := range candidates {
		base := f * b.nrows
		var ord []int32
		if b.safe[f] {
			ord = b.ford[f*b.n+start : f*b.n+end]
		} else {
			// Exact seed fallback: same initial order (node recursion
			// order), same comparator, same pdqsort — same permutation.
			ord = b.order[:n]
			copy(ord, b.samples[start:end])
			b.sortBase = base
			slices.SortFunc(ord, b.sortCmp)
		}

		// Scan splits with running sums: left prefix vs right suffix.
		var sumL, sqL float64
		sumR, sqR := 0.0, 0.0
		for _, id := range ord {
			yi := b.y[id]
			sumR += yi
			sqR += yi * yi
		}
		v := b.col[base+int(ord[0])]
		for k := 0; k < n-1; k++ {
			yi := b.y[ord[k]]
			sumL += yi
			sqL += yi * yi
			sumR -= yi
			sqR -= yi * yi
			vNext := b.col[base+int(ord[k+1])]
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
// It reuses the per-builder cand buffer; the MTry path consumes the RNG
// stream exactly as SampleWithoutReplacement (Perm then truncate) did.
func (b *builder) candidateFeatures() []int {
	nf := b.tree.nFeatures
	if b.p.MTry == 0 || b.p.MTry >= nf {
		return b.cand
	}
	b.p.RNG.PermInto(b.cand)
	return b.cand[:b.p.MTry]
}

// Predict returns the tree's response for the feature vector x.
// It panics if x has the wrong length.
func (t *Tree) Predict(x []float64) float64 {
	if len(x) != t.nFeatures {
		panic(fmt.Sprintf("rtree: predicting with %d features, tree has %d", len(x), t.nFeatures))
	}
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// NumFeatures returns the number of predictors the tree was trained on.
func (t *Tree) NumFeatures() int { return t.nFeatures }

// NumNodes returns the total node count (internal + leaves).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumLeaves returns the number of terminal nodes.
func (t *Tree) NumLeaves() int {
	c := 0
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			c++
		}
	}
	return c
}

// Depth returns the maximum root-to-leaf depth (a single leaf has depth 0).
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(i int32) int
	walk = func(i int32) int {
		n := &t.nodes[i]
		if n.feature < 0 {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}

// ResponseRange returns the [min, max] of training responses; every
// prediction lies within this interval (leaves are training means).
func (t *Tree) ResponseRange() (lo, hi float64) { return t.minResp, t.maxResp }

// PurityGain returns, per feature, the total SSE decrease contributed by
// splits on that feature (R's IncNodePurity). The slice is a copy.
func (t *Tree) PurityGain() []float64 {
	out := make([]float64, len(t.purityGain))
	copy(out, t.purityGain)
	return out
}

// String renders the tree structure for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(i int32, indent string)
	walk = func(i int32, indent string) {
		n := &t.nodes[i]
		if n.feature < 0 {
			fmt.Fprintf(&b, "%sleaf value=%.4g n=%d\n", indent, n.value, n.count)
			return
		}
		fmt.Fprintf(&b, "%sx[%d] <= %.4g (n=%d)\n", indent, n.feature, n.threshold, n.count)
		walk(n.left, indent+"  ")
		walk(n.right, indent+"  ")
	}
	walk(0, "")
	return b.String()
}
