package rtree

// Flat forest layout: the only tree representation. FitMatrix grows each
// tree straight into a single structure-of-arrays (feature index,
// threshold-or-leaf value, left/right child offsets), Join assembles the
// grown trees into one forest-global node array with a per-tree
// root-offset index, and bundles of either form (ImportFlat, ImportTrees)
// decode into it through one node-graph validator. Traversal is a tight
// loop over four flat slices, which makes single predicts ns-scale and lets
// batch prediction walk one tree's nodes across a whole row block before
// moving to the next tree (cache locality; see forest.PredictAll). The same
// loop walks single trees (PredictTree) for out-of-bag error, permutation
// importance and partial-dependence bands.
//
// Bit-identity: thresholds and leaf values are stored as the builder
// computed them and the traversal sends x[feature] <= threshold left, the
// rule the trees were grown with, so a FlatForest reproduces a node-by-node
// walk of the grown trees bit for bit (the rtree tests keep that walk as
// the oracle). The export encoding (ExportedValues) is only ever chosen
// when it is lossless, so a bundle round trip preserves that guarantee.

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// FlatForest is a forest in one contiguous node array. Tree t's nodes
// occupy the half-open span [roots[t], roots[t+1]) (the last tree runs to
// the end of the array) with the root first; within a span children always
// come after their parent, the invariant validate enforces on imported
// bundles, so any walk terminates. A FlatForest is immutable and safe for
// concurrent use.
type FlatForest struct {
	nFeatures int
	enc       string    // value encoding this forest was decoded from ("" = grown or tree-form)
	roots     []int32   // per-tree root index into the node arrays
	feature   []int32   // split feature, or -1 for a leaf
	thresh    []float64 // split threshold, or the leaf value when feature < 0
	left      []int32   // forest-global left-child index (zero on leaves)
	right     []int32   // forest-global right-child index (zero on leaves)
}

// Join assembles forests, in order, into one: every tree keeps its nodes
// in their order, and roots and child offsets are rebased onto the joined
// node array. All parts must share a feature count. Fit joins the one-tree
// forests FitMatrix grows; ImportTrees joins the trees of a tree-form
// bundle.
func Join(parts []*FlatForest) (*FlatForest, error) {
	if len(parts) == 0 {
		return nil, errors.New("rtree: no trees to join")
	}
	nf := parts[0].nFeatures
	nodes, trees := 0, 0
	for i, p := range parts {
		if p.nFeatures != nf {
			return nil, fmt.Errorf("rtree: part %d has %d features, part 0 has %d", i, p.nFeatures, nf)
		}
		nodes += len(p.feature)
		trees += len(p.roots)
	}
	if nodes > math.MaxInt32 {
		return nil, fmt.Errorf("rtree: forest has %d nodes, flat index limit is %d", nodes, math.MaxInt32)
	}
	f := &FlatForest{
		nFeatures: nf,
		roots:     make([]int32, 0, trees),
		feature:   make([]int32, 0, nodes),
		thresh:    make([]float64, 0, nodes),
		left:      make([]int32, 0, nodes),
		right:     make([]int32, 0, nodes),
	}
	for _, p := range parts {
		base := int32(len(f.feature))
		for _, r := range p.roots {
			f.roots = append(f.roots, base+r)
		}
		f.feature = append(f.feature, p.feature...)
		f.thresh = append(f.thresh, p.thresh...)
		for i, ft := range p.feature {
			l, r := p.left[i], p.right[i]
			if ft >= 0 {
				l, r = l+base, r+base
			}
			f.left = append(f.left, l)
			f.right = append(f.right, r)
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

// PredictTree returns tree t's response for x, walking the tree's span with
// the loop Predict and PredictBatch use. It panics if x has the wrong length.
func (f *FlatForest) PredictTree(t int, x []float64) float64 {
	if len(x) != f.nFeatures {
		panic(fmt.Sprintf("rtree: predicting with %d features, forest has %d", len(x), f.nFeatures))
	}
	return f.predictTree(f.roots[t], x)
}

// Predict returns the forest prediction (mean of tree predictions, summed in
// tree order) for x. Unlike PredictTree, a malformed input returns an error
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

// NumTrees returns the number of trees.
func (f *FlatForest) NumTrees() int { return len(f.roots) }

// NumFeatures returns the number of predictors.
func (f *FlatForest) NumFeatures() int { return f.nFeatures }

// Encoding returns the bundle value encoding this forest was decoded from
// ("dict16", "f32" or "f64"), or "" for a grown or tree-form forest.
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

// ImportFlat reconstructs a FlatForest from its exported form, through the
// node-graph validation every imported forest passes (see validate).
func ImportFlat(e *ExportedFlatForest) (*FlatForest, error) {
	if e == nil {
		return nil, errors.New("rtree: nil exported flat forest")
	}
	vals, err := e.Values.decode(len(e.Feature))
	if err != nil {
		return nil, err
	}
	f := &FlatForest{
		nFeatures: e.NFeatures,
		enc:       e.Values.Enc,
		roots:     slices.Clone(e.Roots),
		feature:   slices.Clone(e.Feature),
		thresh:    vals,
		left:      slices.Clone(e.Left),
		right:     slices.Clone(e.Right),
	}
	if err := f.validate(); err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	return f, nil
}

// validate checks the node graph of an imported forest, so a corrupted or
// hostile bundle of either form cannot cause an out-of-range or cyclic
// walk: roots must start at 0 and strictly increase, split features must
// index the declared feature count, and every internal node's children
// must lie after it inside the same tree span. Leaf child offsets are
// never read; validate zeroes them so Equal does not depend on serialized
// junk.
func (f *FlatForest) validate() error {
	n := len(f.feature)
	switch {
	case f.nFeatures <= 0 || f.nFeatures > math.MaxInt32:
		return fmt.Errorf("invalid feature count %d", f.nFeatures)
	case n == 0:
		return errors.New("forest has no nodes")
	case n > math.MaxInt32:
		return fmt.Errorf("%d nodes exceed the flat index limit", n)
	case len(f.thresh) != n || len(f.left) != n || len(f.right) != n:
		return fmt.Errorf("node arrays disagree (%d features, %d values, %d left, %d right)",
			n, len(f.thresh), len(f.left), len(f.right))
	case len(f.roots) == 0:
		return errors.New("forest has no trees")
	}
	for t, r := range f.roots {
		if t == 0 {
			if r != 0 {
				return fmt.Errorf("first tree root is %d, want 0", r)
			}
		} else if r <= f.roots[t-1] {
			return fmt.Errorf("tree roots not strictly increasing at tree %d", t)
		}
		if int(r) >= n {
			return fmt.Errorf("tree %d root %d out of range %d", t, r, n)
		}
	}
	for t := range f.roots {
		end := int32(n)
		if t+1 < len(f.roots) {
			end = f.roots[t+1]
		}
		for i := f.roots[t]; i < end; i++ {
			ft := f.feature[i]
			if int(ft) >= f.nFeatures {
				return fmt.Errorf("node %d splits on feature %d of %d", i, ft, f.nFeatures)
			}
			if ft < 0 {
				f.left[i], f.right[i] = 0, 0
				continue
			}
			// Children after their parent, confined to the tree span: this
			// bounds every index and makes cycles impossible, so every walk
			// of a validated forest terminates.
			if l, r := f.left[i], f.right[i]; l <= i || l >= end || r <= i || r >= end {
				return fmt.Errorf("node %d has invalid children (%d, %d)", i, l, r)
			}
		}
	}
	return nil
}
