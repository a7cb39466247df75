// Package dataset implements the tabular data container used throughout
// BlackForest: a column-named frame of float64 observations, with the
// selection, splitting, and CSV I/O operations the modeling pipeline needs.
//
// The paper's toolchain stores profiler output in "a structured repository";
// this package is that repository. Rows are observations (one profiled kernel
// run), columns are variables (performance counters, problem characteristics,
// machine characteristics, and the response).
package dataset

import (
	"errors"
	"fmt"
	"sort"

	"blackforest/internal/stats"
)

// Frame is a rectangular table of float64 values with named columns.
// All columns have the same length. The zero value is an empty frame.
type Frame struct {
	names []string
	index map[string]int
	cols  [][]float64
	nrows int
}

// New returns an empty frame.
func New() *Frame {
	return &Frame{index: make(map[string]int)}
}

// FromColumns builds a frame from a list of (name, values) pairs given as
// parallel slices. All value slices must have equal length and names must be
// unique.
func FromColumns(names []string, cols [][]float64) (*Frame, error) {
	if len(names) != len(cols) {
		return nil, fmt.Errorf("dataset: %d names but %d columns", len(names), len(cols))
	}
	f := New()
	for i, name := range names {
		if err := f.AddColumn(name, cols[i]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// NumRows returns the number of observations.
func (f *Frame) NumRows() int { return f.nrows }

// NumCols returns the number of variables.
func (f *Frame) NumCols() int { return len(f.cols) }

// Names returns the column names in order. The returned slice is a copy.
func (f *Frame) Names() []string {
	out := make([]string, len(f.names))
	copy(out, f.names)
	return out
}

// Has reports whether the frame contains a column with the given name.
func (f *Frame) Has(name string) bool {
	_, ok := f.index[name]
	return ok
}

// AddColumn appends a column. The first column fixes the row count; later
// columns must match it. Adding a duplicate name is an error.
func (f *Frame) AddColumn(name string, values []float64) error {
	if _, dup := f.index[name]; dup {
		return fmt.Errorf("dataset: duplicate column %q", name)
	}
	if len(f.cols) > 0 && len(values) != f.nrows {
		return fmt.Errorf("dataset: column %q has %d rows, frame has %d", name, len(values), f.nrows)
	}
	v := make([]float64, len(values))
	copy(v, values)
	f.index[name] = len(f.cols)
	f.names = append(f.names, name)
	f.cols = append(f.cols, v)
	f.nrows = len(values)
	return nil
}

// AddConstColumn appends a column holding the same value in every row —
// used to inject machine characteristics (Table 2) into profiled data.
func (f *Frame) AddConstColumn(name string, value float64) error {
	v := make([]float64, f.nrows)
	for i := range v {
		v[i] = value
	}
	return f.AddColumn(name, v)
}

// Column returns the values of the named column. The returned slice aliases
// frame storage; callers must not mutate it.
func (f *Frame) Column(name string) ([]float64, error) {
	i, ok := f.index[name]
	if !ok {
		return nil, fmt.Errorf("dataset: no column %q", name)
	}
	return f.cols[i], nil
}

// MustColumn is Column but panics on a missing name. Use only when the
// caller has already validated the schema.
func (f *Frame) MustColumn(name string) []float64 {
	c, err := f.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// At returns the value at row i of the named column.
func (f *Frame) At(i int, name string) (float64, error) {
	c, err := f.Column(name)
	if err != nil {
		return 0, err
	}
	if i < 0 || i >= len(c) {
		return 0, fmt.Errorf("dataset: row %d out of range [0,%d)", i, len(c))
	}
	return c[i], nil
}

// AppendRow appends one observation given as a name→value map. The map must
// cover exactly the frame's columns; an empty frame adopts the map's keys
// (sorted for determinism).
func (f *Frame) AppendRow(row map[string]float64) error {
	if len(f.cols) == 0 {
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := f.AddColumn(k, nil); err != nil {
				return err
			}
		}
		f.nrows = 0
	}
	if len(row) != len(f.cols) {
		return fmt.Errorf("dataset: row has %d values, frame has %d columns", len(row), len(f.cols))
	}
	for j, name := range f.names {
		v, ok := row[name]
		if !ok {
			return fmt.Errorf("dataset: row missing column %q", name)
		}
		f.cols[j] = append(f.cols[j], v)
	}
	f.nrows++
	return nil
}

// Select returns a new frame containing only the named columns, in order.
func (f *Frame) Select(columns ...string) (*Frame, error) {
	out := New()
	for _, name := range columns {
		c, err := f.Column(name)
		if err != nil {
			return nil, err
		}
		if err := out.AddColumn(name, c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Subset returns a new frame containing the given rows (in the given order).
func (f *Frame) Subset(rows []int) (*Frame, error) {
	out := New()
	for j, name := range f.names {
		col := make([]float64, len(rows))
		for k, r := range rows {
			if r < 0 || r >= f.nrows {
				return nil, fmt.Errorf("dataset: row %d out of range [0,%d)", r, f.nrows)
			}
			col[k] = f.cols[j][r]
		}
		if err := out.AddColumn(name, col); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Split partitions the frame into train and test frames using the RNG, with
// the given training fraction (the paper uses 0.8).
func (f *Frame) Split(rng *stats.RNG, trainFrac float64) (train, test *Frame, err error) {
	if f.nrows == 0 {
		return nil, nil, errors.New("dataset: cannot split an empty frame")
	}
	trainIdx, testIdx := rng.TrainTestSplit(f.nrows, trainFrac)
	train, err = f.Subset(trainIdx)
	if err != nil {
		return nil, nil, err
	}
	test, err = f.Subset(testIdx)
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// Matrix returns the frame's values for the given columns as a row-major
// [nrows][len(columns)] design matrix.
func (f *Frame) Matrix(columns []string) ([][]float64, error) {
	idx := make([]int, len(columns))
	for k, name := range columns {
		j, ok := f.index[name]
		if !ok {
			return nil, fmt.Errorf("dataset: no column %q", name)
		}
		idx[k] = j
	}
	out := make([][]float64, f.nrows)
	for i := 0; i < f.nrows; i++ {
		row := make([]float64, len(columns))
		for k, j := range idx {
			row[k] = f.cols[j][i]
		}
		out[i] = row
	}
	return out, nil
}

// Bind returns a new frame with the rows of g appended to f. The frames
// must have identical column sets (order may differ).
func (f *Frame) Bind(g *Frame) (*Frame, error) {
	if len(f.cols) != len(g.cols) {
		return nil, fmt.Errorf("dataset: binding frames with %d and %d columns", len(f.cols), len(g.cols))
	}
	out := New()
	for j, name := range f.names {
		gc, err := g.Column(name)
		if err != nil {
			return nil, fmt.Errorf("dataset: bind: %w", err)
		}
		col := make([]float64, 0, f.nrows+g.nrows)
		col = append(col, f.cols[j]...)
		col = append(col, gc...)
		if err := out.AddColumn(name, col); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DropConstantColumns returns a new frame without zero-variance columns,
// except those listed in keep. Constant predictors carry no information for
// the forest and bias importance rankings.
func (f *Frame) DropConstantColumns(keep ...string) *Frame {
	keepSet := make(map[string]bool, len(keep))
	for _, k := range keep {
		keepSet[k] = true
	}
	out := New()
	for j, name := range f.names {
		if !keepSet[name] && f.nrows > 1 && stats.Variance(f.cols[j]) == 0 {
			continue
		}
		// AddColumn cannot fail here: names are unique and lengths match.
		_ = out.AddColumn(name, f.cols[j])
	}
	return out
}
