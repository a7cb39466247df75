package mat

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("mat: empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("mat: ragged input: row %d has %d values, want %d", i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// FromSlice wraps data (row-major, length rows*cols) in a matrix, copying it.
func FromSlice(rows, cols int, data []float64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("mat: data length %d does not match %dx%d", len(data), rows, cols)
	}
	m := New(rows, cols)
	copy(m.data, data)
	return m, nil
}

// RawRow returns row i as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) RawRow(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Sub returns m − b elementwise.
func (m *Matrix) Sub(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%d - %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out, nil
}

func TestNewDimensions(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("wrong values: %v", m)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged input accepted")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestFromSlice(t *testing.T) {
	m, err := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("got %v at (1,0), want 3", m.At(1, 0))
	}
	if _, err := FromSlice(2, 2, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("identity wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAtRowCol(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	col := m.Col(2)
	if col[1] != 7 {
		t.Fatal("Col wrong")
	}
}

func TestRawRowAliases(t *testing.T) {
	m := New(2, 2)
	m.RawRow(0)[1] = 5
	if m.At(0, 1) != 5 {
		t.Fatal("RawRow should alias storage")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose values wrong")
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul wrong at (%d,%d): %v", i, j, c.At(i, j))
			}
		}
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec got %v", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("bad vector length accepted")
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{4, 3}, {2, 1}})
	s, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0, 0) != 5 || s.At(1, 1) != 5 {
		t.Fatal("Add wrong")
	}
	d, err := a.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0, 0) != -3 || d.At(1, 1) != 3 {
		t.Fatal("Sub wrong")
	}
	sc := a.Scale(2)
	if sc.At(1, 0) != 6 {
		t.Fatal("Scale wrong")
	}
	if a.At(1, 0) != 3 {
		t.Fatal("Scale mutated receiver")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := FromRows([][]float64{{3, 4}})
	if !almostEq(m.FrobeniusNorm(), 5, 1e-12) {
		t.Fatalf("norm got %v", m.FrobeniusNorm())
	}
}

func TestIsSymmetric(t *testing.T) {
	s, _ := FromRows([][]float64{{1, 2}, {2, 1}})
	if !s.IsSymmetric(1e-12) {
		t.Fatal("symmetric matrix rejected")
	}
	n, _ := FromRows([][]float64{{1, 2}, {3, 1}})
	if n.IsSymmetric(1e-12) {
		t.Fatal("asymmetric matrix accepted")
	}
	r := New(2, 3)
	if r.IsSymmetric(1e-12) {
		t.Fatal("non-square matrix accepted as symmetric")
	}
}

// Property: (Aᵀ)ᵀ = A for random matrices.
func TestTransposeInvolution(t *testing.T) {
	f := func(vals [12]float64) bool {
		m, _ := FromSlice(3, 4, vals[:])
		tt := m.T().T()
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				if m.At(i, j) != tt.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: A·I = A.
func TestMulIdentity(t *testing.T) {
	f := func(vals [9]float64) bool {
		m, _ := FromSlice(3, 3, vals[:])
		p, err := m.Mul(Identity(3))
		if err != nil {
			return false
		}
		for i := range vals {
			if p.data[i] != m.data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
