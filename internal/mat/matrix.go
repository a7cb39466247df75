// Package mat provides the dense linear algebra needed by the BlackForest
// statistics stack: matrix arithmetic, Householder QR with least-squares
// solving, and a Jacobi eigensolver for symmetric matrices.
//
// Matrices are stored row-major in a single backing slice. The package is
// deliberately small: it implements exactly what PCA, GLM, and MARS need,
// with no external dependencies.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-initialized rows×cols matrix.
// It panics if either dimension is not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols:]
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = row[j]
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := New(m.rows, b.cols)
	// ikj loop order keeps the inner loop streaming over contiguous rows.
	for i := 0; i < m.rows; i++ {
		arow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%d · vec(%d)", m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Add returns m + b elementwise.
func (m *Matrix) Add(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%d + %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out, nil
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
