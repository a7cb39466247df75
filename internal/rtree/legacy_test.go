package rtree

// This file keeps the straightforward CART implementation as a reference
// oracle: every node copies its ids, shuffles them with a seeded RNG and
// sorts them by (feature value, row id) for each candidate feature. The
// production builder presorts each feature once and partitions the
// orderings down the recursion; its guarantee is "same trees as this
// reference, bit for bit". (value, id) is a total order, so the shuffle
// cannot change what the sort returns: a builder whose scan order depended
// on the initial order or on the sort algorithm would diverge from this
// oracle. testdata/tree_fixture.json is generated from THIS code
// (UPDATE_TREE_FIXTURE=1), never from the production builder.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"blackforest/internal/stats"
)

// legacyShuffleSeed seeds the oracle's per-node shuffles. It is independent
// of Params.RNG, whose stream the candidate sampling must consume exactly
// as the production builder does.
const legacyShuffleSeed = 0x5eed

// legacyFit is the reference builder: a per-node sort for every split scan.
func legacyFit(x [][]float64, y []float64, idx []int, p Params) (*Tree, error) {
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
	}
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
		idx = make([]int, len(x))
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

	b := &legacyBuilder{x: x, y: y, p: p, tree: t, shuffle: stats.NewRNG(legacyShuffleSeed)}
	work := make([]int, len(idx))
	copy(work, idx)
	b.grow(work, 0)
	return t, nil
}

// legacyBuilder carries shared state during recursive growth.
type legacyBuilder struct {
	x       [][]float64
	y       []float64
	p       Params
	tree    *Tree
	shuffle *stats.RNG // scrambles each sort's input order
}

func (b *legacyBuilder) grow(idx []int, depth int) int32 {
	me := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: -1})

	var sum float64
	for _, i := range idx {
		sum += b.y[i]
	}
	mean := sum / float64(len(idx))
	b.tree.nodes[me].value = mean
	b.tree.nodes[me].count = len(idx)

	if len(idx) < b.p.MinNodeSize*2 || (b.p.MaxDepth > 0 && depth >= b.p.MaxDepth) {
		return me
	}

	feat, thresh, gain, ok := b.bestSplit(idx, mean)
	if !ok {
		return me
	}

	left := idx[:0:0]
	right := idx[:0:0]
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return me // degenerate split; keep as leaf
	}

	b.tree.purityGain[feat] += gain
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.tree.nodes[me].feature = feat
	b.tree.nodes[me].threshold = thresh
	b.tree.nodes[me].left = l
	b.tree.nodes[me].right = r
	return me
}

func (b *legacyBuilder) bestSplit(idx []int, mean float64) (feat int, thresh, gain float64, ok bool) {
	n := len(idx)
	var parentSSE float64
	for _, i := range idx {
		d := b.y[i] - mean
		parentSSE += d * d
	}
	if parentSSE <= 0 {
		return 0, 0, 0, false // node is pure
	}

	candidates := b.candidateFeatures()
	order := make([]int, n)
	bestSSE := math.Inf(1)
	for _, f := range candidates {
		copy(order, idx)
		b.shuffle.ShuffleInts(order)
		sort.Slice(order, func(a, c int) bool {
			va, vc := b.x[order[a]][f], b.x[order[c]][f]
			return va < vc || va == vc && order[a] < order[c]
		})

		// Scan splits with running sums: left prefix vs right suffix.
		var sumL, sqL float64
		sumR, sqR := 0.0, 0.0
		for _, i := range order {
			sumR += b.y[i]
			sqR += b.y[i] * b.y[i]
		}
		for k := 0; k < n-1; k++ {
			yi := b.y[order[k]]
			sumL += yi
			sqL += yi * yi
			sumR -= yi
			sqR -= yi * yi
			// Cannot split between identical feature values.
			if b.x[order[k]][f] == b.x[order[k+1]][f] {
				continue
			}
			nl, nr := float64(k+1), float64(n-k-1)
			sse := (sqL - sumL*sumL/nl) + (sqR - sumR*sumR/nr)
			if sse < bestSSE {
				bestSSE = sse
				feat = f
				thresh = (b.x[order[k]][f] + b.x[order[k+1]][f]) / 2
				ok = true
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

func (b *legacyBuilder) candidateFeatures() []int {
	nf := b.tree.nFeatures
	if b.p.MTry == 0 || b.p.MTry >= nf {
		all := make([]int, nf)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return b.p.RNG.SampleWithoutReplacement(nf, b.p.MTry)
}
