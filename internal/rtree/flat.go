package rtree

// Flat compiled forest inference. A fitted forest of pointer-linked *Tree
// objects is compiled once into a single contiguous structure-of-arrays
// (feature index, threshold-or-leaf-value, left/right child offsets relative
// to the forest-global node array), with a per-tree root-offset index.
// Traversal is then a tight loop over four flat slices with no per-node
// pointer chasing, which makes single predicts ns-scale and lets batch
// prediction walk one tree's nodes across a whole row block before moving to
// the next tree (cache locality; see forest.PredictAll).
//
// Bit-identity: the compiler copies every threshold and leaf value verbatim
// and the traversal applies exactly the comparison Tree.Predict applies
// (x[feature] <= threshold goes left), so a FlatForest reproduces the
// pointer walker's predictions bit for bit. The quantized export encoding
// (ExportedValues) is only ever chosen when it is lossless, so a bundle
// round trip preserves that guarantee.

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// FlatForest is a forest compiled into one contiguous node array. Tree t's
// nodes occupy the half-open span [roots[t], roots[t+1]) (the last tree runs
// to the end of the array) with the root first; within a span children
// always come after their parent, the same invariant Import enforces for
// single trees, so any walk terminates. A FlatForest is immutable and safe
// for concurrent use.
type FlatForest struct {
	nFeatures int
	enc       string    // value encoding this forest was decoded from ("" = compiled in-process)
	roots     []int32   // per-tree root index into the node arrays
	feature   []int32   // split feature, or -1 for a leaf
	thresh    []float64 // split threshold, or the leaf value when feature < 0
	left      []int32   // forest-global left-child index (unused on leaves)
	right     []int32   // forest-global right-child index (unused on leaves)
}

// CompileFlat compiles fitted trees into a FlatForest. All trees must share
// a feature count; the per-tree node order (children after parents) is
// preserved, so the compiled layout satisfies the Import invariants by
// construction.
func CompileFlat(trees []*Tree) (*FlatForest, error) {
	if len(trees) == 0 {
		return nil, errors.New("rtree: no trees to compile")
	}
	nf := trees[0].nFeatures
	total := 0
	for i, t := range trees {
		if t == nil {
			return nil, fmt.Errorf("rtree: nil tree %d", i)
		}
		if t.nFeatures != nf {
			return nil, fmt.Errorf("rtree: tree %d has %d features, tree 0 has %d", i, t.nFeatures, nf)
		}
		if len(t.nodes) == 0 {
			return nil, fmt.Errorf("rtree: tree %d has no nodes", i)
		}
		total += len(t.nodes)
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("rtree: forest has %d nodes, flat index limit is %d", total, math.MaxInt32)
	}
	f := &FlatForest{
		nFeatures: nf,
		roots:     make([]int32, len(trees)),
		feature:   make([]int32, 0, total),
		thresh:    make([]float64, 0, total),
		left:      make([]int32, 0, total),
		right:     make([]int32, 0, total),
	}
	for ti, t := range trees {
		base := int32(len(f.feature))
		f.roots[ti] = base
		for i := range t.nodes {
			n := &t.nodes[i]
			if n.feature < 0 {
				// Leaves reuse the threshold slot for the leaf value and
				// carry zeroed child offsets (never read by traversal).
				f.feature = append(f.feature, -1)
				f.thresh = append(f.thresh, n.value)
				f.left = append(f.left, 0)
				f.right = append(f.right, 0)
			} else {
				f.feature = append(f.feature, int32(n.feature))
				f.thresh = append(f.thresh, n.threshold)
				f.left = append(f.left, base+n.left)
				f.right = append(f.right, base+n.right)
			}
		}
	}
	return f, nil
}

// predictTree walks one tree from its root. The loop body is branch-light:
// the only data-dependent branch is the leaf test, and the child selection
// compiles to a conditional move.
func (f *FlatForest) predictTree(i int32, x []float64) float64 {
	feature, thresh := f.feature, f.thresh
	left, right := f.left, f.right
	for {
		ft := feature[i]
		if ft < 0 {
			return thresh[i]
		}
		next := left[i]
		if x[ft] > thresh[i] {
			next = right[i]
		}
		i = next
	}
}

// Predict returns the forest prediction (mean of tree predictions, summed in
// tree order) for x. Unlike Tree.Predict, a malformed input returns an error
// instead of panicking: the flat engine is the serving path, and one bad
// vector must never take the server down.
func (f *FlatForest) Predict(x []float64) (float64, error) {
	if len(x) != f.nFeatures {
		return 0, fmt.Errorf("rtree: predicting with %d features, forest has %d", len(x), f.nFeatures)
	}
	var s float64
	for _, r := range f.roots {
		s += f.predictTree(r, x)
	}
	return s / float64(len(f.roots)), nil
}

// PredictBatch fills out[i] with the forest prediction for rows[i], walking
// the batch tree-major: every tree is applied to the whole row block before
// the next tree starts, so one tree's node array stays cache-hot across all
// rows. Per row, tree contributions still accumulate in tree order, so each
// result is bit-identical to Predict. out must have len(rows).
func (f *FlatForest) PredictBatch(rows [][]float64, out []float64) error {
	if len(out) != len(rows) {
		return fmt.Errorf("rtree: output length %d for %d rows", len(out), len(rows))
	}
	for i, x := range rows {
		if len(x) != f.nFeatures {
			return fmt.Errorf("rtree: row %d has %d features, forest has %d", i, len(x), f.nFeatures)
		}
		out[i] = 0
	}
	for _, r := range f.roots {
		for i, x := range rows {
			out[i] += f.predictTree(r, x)
		}
	}
	nt := float64(len(f.roots))
	for i := range out {
		out[i] /= nt
	}
	return nil
}

// NumTrees returns the number of compiled trees.
func (f *FlatForest) NumTrees() int { return len(f.roots) }

// NumFeatures returns the number of predictors.
func (f *FlatForest) NumFeatures() int { return f.nFeatures }

// NumNodes returns the total node count across all trees.
func (f *FlatForest) NumNodes() int { return len(f.feature) }

// Encoding returns the bundle value encoding this forest was decoded from
// ("dict16", "f32" or "f64"), or "" for a forest compiled in-process.
func (f *FlatForest) Encoding() string { return f.enc }

// Equal reports whether two flat forests are structurally identical with
// bit-identical thresholds and leaf values (NaN-safe, -0/+0-distinguishing).
func (f *FlatForest) Equal(g *FlatForest) bool {
	if f.nFeatures != g.nFeatures ||
		!slices.Equal(f.roots, g.roots) ||
		!slices.Equal(f.feature, g.feature) ||
		!slices.Equal(f.left, g.left) ||
		!slices.Equal(f.right, g.right) ||
		len(f.thresh) != len(g.thresh) {
		return false
	}
	for i := range f.thresh {
		if math.Float64bits(f.thresh[i]) != math.Float64bits(g.thresh[i]) {
			return false
		}
	}
	return true
}

// ExportedValues is a float64 array under one of three lossless encodings,
// chosen by encodeValues to minimize the serialized footprint:
//
//   - "dict16": a sorted table of distinct values plus one uint16 index per
//     element — exact whenever the array has at most 65536 distinct bit
//     patterns (forest thresholds almost always qualify: they are midpoints
//     of observed training values).
//   - "f32": float32 per element — chosen only when every value round-trips
//     float64→float32→float64 exactly.
//   - "f64": raw float64 fallback; always exact.
//
// Decoding any of the three reconstructs the original float64 bit patterns,
// so a loaded bundle predicts bit-identically to the forest that wrote it.
type ExportedValues struct {
	Enc   string    `json:"enc"`
	Table []float64 `json:"table,omitempty"`
	Idx   []uint16  `json:"idx,omitempty"`
	F32   []float32 `json:"f32,omitempty"`
	F64   []float64 `json:"f64,omitempty"`
}

// encodeValues picks the smallest lossless encoding for vals.
func encodeValues(vals []float64) ExportedValues {
	// Dedup by bit pattern, not by ==: -0.0 == 0.0 would merge two distinct
	// patterns and change the bits a leaf sum can produce; NaN != NaN would
	// make map lookups miss. (NaN cannot appear in a fitted forest — Fit
	// rejects non-finite inputs — but the encoder must not corrupt anything.)
	distinct := make(map[uint64]uint16, 1024)
	for _, v := range vals {
		b := math.Float64bits(v)
		if _, ok := distinct[b]; !ok {
			if len(distinct) >= 1<<16 {
				distinct = nil
				break
			}
			distinct[b] = 0
		}
	}
	if distinct != nil {
		keys := make([]uint64, 0, len(distinct))
		for b := range distinct {
			keys = append(keys, b)
		}
		// Sort by value (bit pattern breaks the -0/+0 tie) so the table is
		// deterministic regardless of map iteration order.
		slices.SortFunc(keys, func(a, b uint64) int {
			va, vb := math.Float64frombits(a), math.Float64frombits(b)
			if va < vb {
				return -1
			}
			if va > vb {
				return 1
			}
			if a < b {
				return -1
			}
			if a > b {
				return 1
			}
			return 0
		})
		table := make([]float64, len(keys))
		for i, b := range keys {
			table[i] = math.Float64frombits(b)
			distinct[b] = uint16(i)
		}
		idx := make([]uint16, len(vals))
		for i, v := range vals {
			idx[i] = distinct[math.Float64bits(v)]
		}
		return ExportedValues{Enc: "dict16", Table: table, Idx: idx}
	}
	f32ok := true
	for _, v := range vals {
		if float64(float32(v)) != v {
			f32ok = false
			break
		}
	}
	if f32ok {
		f32 := make([]float32, len(vals))
		for i, v := range vals {
			f32[i] = float32(v)
		}
		return ExportedValues{Enc: "f32", F32: f32}
	}
	return ExportedValues{Enc: "f64", F64: append([]float64(nil), vals...)}
}

// decode reconstructs the float64 array, which must have length n.
func (e *ExportedValues) decode(n int) ([]float64, error) {
	switch e.Enc {
	case "dict16":
		if len(e.Idx) != n {
			return nil, fmt.Errorf("rtree: dict16 values carry %d indices for %d nodes", len(e.Idx), n)
		}
		if len(e.Table) == 0 || len(e.Table) > 1<<16 {
			return nil, fmt.Errorf("rtree: dict16 table has %d entries", len(e.Table))
		}
		out := make([]float64, n)
		for i, k := range e.Idx {
			if int(k) >= len(e.Table) {
				return nil, fmt.Errorf("rtree: dict16 index %d out of table range %d", k, len(e.Table))
			}
			out[i] = e.Table[k]
		}
		return out, nil
	case "f32":
		if len(e.F32) != n {
			return nil, fmt.Errorf("rtree: f32 values carry %d entries for %d nodes", len(e.F32), n)
		}
		out := make([]float64, n)
		for i, v := range e.F32 {
			out[i] = float64(v)
		}
		return out, nil
	case "f64":
		if len(e.F64) != n {
			return nil, fmt.Errorf("rtree: f64 values carry %d entries for %d nodes", len(e.F64), n)
		}
		return append([]float64(nil), e.F64...), nil
	default:
		return nil, fmt.Errorf("rtree: unknown value encoding %q", e.Enc)
	}
}

// ExportedFlatForest is the serializable form of a FlatForest: the bundle's
// optional compact forest encoding.
type ExportedFlatForest struct {
	NFeatures int            `json:"features"`
	Roots     []int32        `json:"roots"`
	Feature   []int32        `json:"feature"`
	Left      []int32        `json:"left"`
	Right     []int32        `json:"right"`
	Values    ExportedValues `json:"values"`
}

// Export returns the flat forest in serializable form with thresholds and
// leaf values under the smallest lossless encoding.
func (f *FlatForest) Export() *ExportedFlatForest {
	return &ExportedFlatForest{
		NFeatures: f.nFeatures,
		Roots:     append([]int32(nil), f.roots...),
		Feature:   append([]int32(nil), f.feature...),
		Left:      append([]int32(nil), f.left...),
		Right:     append([]int32(nil), f.right...),
		Values:    encodeValues(f.thresh),
	}
}

// ImportFlat reconstructs a FlatForest from its exported form, validating
// the node graph so a corrupted or hostile bundle cannot cause out-of-range
// or cyclic walks: roots must start at 0 and strictly increase, and every
// internal node's children must lie after it inside the same tree span.
func ImportFlat(e *ExportedFlatForest) (*FlatForest, error) {
	if e == nil {
		return nil, errors.New("rtree: nil exported flat forest")
	}
	if e.NFeatures <= 0 {
		return nil, fmt.Errorf("rtree: invalid feature count %d", e.NFeatures)
	}
	n := len(e.Feature)
	if n == 0 {
		return nil, errors.New("rtree: exported flat forest has no nodes")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("rtree: %d nodes exceed the flat index limit", n)
	}
	if len(e.Left) != n || len(e.Right) != n {
		return nil, fmt.Errorf("rtree: node arrays disagree (%d features, %d left, %d right)",
			n, len(e.Left), len(e.Right))
	}
	if len(e.Roots) == 0 {
		return nil, errors.New("rtree: exported flat forest has no trees")
	}
	vals, err := e.Values.decode(n)
	if err != nil {
		return nil, err
	}
	for t, r := range e.Roots {
		if t == 0 {
			if r != 0 {
				return nil, fmt.Errorf("rtree: first tree root is %d, want 0", r)
			}
		} else if r <= e.Roots[t-1] {
			return nil, fmt.Errorf("rtree: tree roots not strictly increasing at tree %d", t)
		}
		if int(r) >= n {
			return nil, fmt.Errorf("rtree: tree %d root %d out of range %d", t, r, n)
		}
	}
	f := &FlatForest{
		nFeatures: e.NFeatures,
		enc:       e.Values.Enc,
		roots:     append([]int32(nil), e.Roots...),
		feature:   append([]int32(nil), e.Feature...),
		thresh:    vals,
		left:      make([]int32, n),
		right:     make([]int32, n),
	}
	for t := range f.roots {
		end := int32(n)
		if t+1 < len(f.roots) {
			end = f.roots[t+1]
		}
		for i := f.roots[t]; i < end; i++ {
			ft := f.feature[i]
			if ft >= int32(e.NFeatures) {
				return nil, fmt.Errorf("rtree: node %d splits on feature %d of %d", i, ft, e.NFeatures)
			}
			if ft < 0 {
				// Leaf: child offsets are never read; normalize them to zero
				// so Equal comparisons are independent of serialized junk.
				continue
			}
			// Children after their parent, confined to the tree span: this
			// bounds every index and makes cycles impossible, so Predict on
			// any imported flat forest terminates.
			if e.Left[i] <= i || e.Left[i] >= end || e.Right[i] <= i || e.Right[i] >= end {
				return nil, fmt.Errorf("rtree: node %d has invalid children (%d, %d)", i, e.Left[i], e.Right[i])
			}
			f.left[i], f.right[i] = e.Left[i], e.Right[i]
		}
	}
	return f, nil
}
