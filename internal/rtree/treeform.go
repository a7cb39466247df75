package rtree

import (
	"errors"
	"fmt"
)

// ExportedNode is one node of a tree-form bundle, the per-node form
// bundles were written in before the flat encoding.
type ExportedNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int32   `json:"l,omitempty"`
	Right     int32   `json:"r,omitempty"`
	Value     float64 `json:"v"`
	Count     int     `json:"n"`
}

// ExportedTree is one tree of a tree-form bundle. Child offsets index the
// tree's own node list.
type ExportedTree struct {
	Nodes      []ExportedNode `json:"nodes"`
	NFeatures  int            `json:"features"`
	MinResp    float64        `json:"min"`
	MaxResp    float64        `json:"max"`
	PurityGain []float64      `json:"purity,omitempty"`
}

// ImportTrees reads the trees of a tree-form bundle into one FlatForest.
// Each tree becomes a one-tree forest that passes the node-graph
// validation ImportFlat uses, and Join assembles them. A leaf keeps its
// mean response (v), an internal node its split threshold (t); per-node
// counts, internal means and the response range are not needed to predict
// and are not read.
func ImportTrees(trees []*ExportedTree) (*FlatForest, error) {
	parts := make([]*FlatForest, len(trees))
	for t, e := range trees {
		f, err := importTree(e)
		if err != nil {
			return nil, fmt.Errorf("rtree: tree %d: %w", t, err)
		}
		parts[t] = f
	}
	return Join(parts)
}

// importTree converts one tree-form tree to a validated one-tree forest.
func importTree(e *ExportedTree) (*FlatForest, error) {
	if e == nil {
		return nil, errors.New("null tree")
	}
	if len(e.PurityGain) != 0 && len(e.PurityGain) != e.NFeatures {
		return nil, fmt.Errorf("%d purity gains for %d features", len(e.PurityGain), e.NFeatures)
	}
	n := len(e.Nodes)
	f := &FlatForest{
		nFeatures: e.NFeatures,
		roots:     []int32{0},
		feature:   make([]int32, n),
		thresh:    make([]float64, n),
		left:      make([]int32, n),
		right:     make([]int32, n),
	}
	for i, nd := range e.Nodes {
		switch {
		case nd.Feature < 0:
			f.feature[i], f.thresh[i] = -1, nd.Value
		case nd.Feature >= e.NFeatures:
			// Range-checked as an int: converting first would wrap, turning
			// feature 1<<32 into feature 0. (validate rejects a feature
			// count beyond int32.)
			return nil, fmt.Errorf("node %d splits on feature %d of %d", i, nd.Feature, e.NFeatures)
		default:
			f.feature[i], f.thresh[i] = int32(nd.Feature), nd.Threshold
			f.left[i], f.right[i] = nd.Left, nd.Right
		}
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}
