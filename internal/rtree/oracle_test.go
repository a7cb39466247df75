package rtree

import (
	"fmt"
	"math"
)

// Tree is a grown tree in node-list form, the form of the pinned fixture
// (Export) and of the reference builder (legacyFit), and the oracle the
// flat engine is differentially tested against. Every node carries its mean
// response and sample count, and the tree its in-bag response range.
// Production code keeps none of this: Grower.Fit emits flat arrays, and
// fitTree rebuilds a Tree from them.
type Tree struct {
	nodes      []node
	nFeatures  int
	minResp    float64 // smallest in-bag response (prediction lower bound)
	maxResp    float64 // largest in-bag response (prediction upper bound)
	purityGain []float64
}

// node is one tree node. Leaves have feature == -1.
type node struct {
	feature   int     // split feature index, or -1 for a leaf
	threshold float64 // split point s: x[feature] <= s goes left
	left      int32   // index of the left child in Tree.nodes
	right     int32   // index of the right child
	value     float64 // mean response of samples reaching this node
	count     int     // number of training samples at this node
}

// fitTree grows a tree on rows x and responses y with Grower.Fit and
// rebuilds it in node-list form; idx is as for Grower.Fit.
func fitTree(x [][]float64, y []float64, idx []int, p Params) (*Tree, error) {
	m, err := NewMatrix(x, y)
	if err != nil {
		return nil, err
	}
	var g Grower
	f, purity, err := g.Fit(m, idx, p)
	if err != nil {
		return nil, err
	}
	return rebuild(f, purity, x, y, idx)
}

// rebuild turns a one-tree forest grown by Grower.Fit into a Tree. Node
// means and counts are recomputed by routing the in-bag ids through the
// tree in idx order. The builder's stable partition keeps every node's ids
// in idx order too, so each node's sum adds the same responses in the same
// order as the builder's, bit for bit; a recomputed leaf mean that differs
// from the leaf value the builder emitted is an error.
func rebuild(f *FlatForest, purity []float64, x [][]float64, y []float64, idx []int) (*Tree, error) {
	if idx == nil {
		idx = make([]int, len(x))
		for i := range idx {
			idx[i] = i
		}
	}
	t := &Tree{
		nodes:      make([]node, len(f.feature)),
		nFeatures:  f.nFeatures,
		minResp:    math.Inf(1),
		maxResp:    math.Inf(-1),
		purityGain: purity,
	}
	sums := make([]float64, len(f.feature))
	for _, id := range idx {
		if y[id] < t.minResp {
			t.minResp = y[id]
		}
		if y[id] > t.maxResp {
			t.maxResp = y[id]
		}
		for i := int32(0); ; {
			sums[i] += y[id]
			t.nodes[i].count++
			ft := f.feature[i]
			if ft < 0 {
				break
			}
			if x[id][ft] <= f.thresh[i] {
				i = f.left[i]
			} else {
				i = f.right[i]
			}
		}
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		n.value = sums[i] / float64(n.count)
		if f.feature[i] < 0 {
			n.feature = -1
			if math.Float64bits(n.value) != math.Float64bits(f.thresh[i]) {
				return nil, fmt.Errorf("leaf %d: routed mean %v, builder emitted %v", i, n.value, f.thresh[i])
			}
			continue
		}
		n.feature, n.threshold = int(f.feature[i]), f.thresh[i]
		n.left, n.right = f.left[i], f.right[i]
	}
	return t, nil
}

// Predict returns the tree's response for the feature vector x by walking
// the node list node by node. It panics if x has the wrong length.
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

// Export returns the tree in the tree-form bundle encoding.
func (t *Tree) Export() *ExportedTree {
	e := &ExportedTree{
		Nodes:      make([]ExportedNode, len(t.nodes)),
		NFeatures:  t.nFeatures,
		MinResp:    t.minResp,
		MaxResp:    t.maxResp,
		PurityGain: append([]float64(nil), t.purityGain...),
	}
	for i, n := range t.nodes {
		e.Nodes[i] = ExportedNode{
			Feature: n.feature, Threshold: n.threshold,
			Left: n.left, Right: n.right,
			Value: n.value, Count: n.count,
		}
	}
	return e
}

// depth returns the maximum root-to-leaf depth (a single leaf has depth 0).
func (t *Tree) depth(i int32) int {
	n := &t.nodes[i]
	if n.feature < 0 {
		return 0
	}
	return 1 + max(t.depth(n.left), t.depth(n.right))
}
