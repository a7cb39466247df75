package rtree

import "fmt"

// Predict returns the tree's response for the feature vector x by walking
// the grown node array node by node. It is the oracle the flat engine is
// differentially tested against; production code walks FlatForest spans.
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
