package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrRankDeficient is returned when a least-squares system has (numerically)
// linearly dependent columns and cannot be solved without regularization.
var ErrRankDeficient = errors.New("mat: rank-deficient system")

// QR holds a Householder QR factorization of an m×n matrix (m ≥ n), built
// one column at a time. Columns are stored column-major: column k holds the
// entries of R above the diagonal in rows < k and the Householder vector in
// rows ≥ k, and tau[k] is the diagonal R_kk. tau[k] == 0 marks a column that
// was already zero below the diagonal; its reflector is skipped.
//
// Push applies the stored reflectors to the new column one after another
// (left-looking) and then forms its own. A column's factored values depend
// only on itself, the earlier reflectors and the row count, so pushing a
// matrix column by column performs the same floating-point operations, in
// the same order, as a right-looking factorization that applies each new
// reflector to all later columns at once. That is what lets a caller keep a
// shared prefix of columns, Truncate back to it, and push different
// trailing columns with results bit-identical to factoring each matrix
// from scratch.
type QR struct {
	a    []float64 // column k is a[k*rows : (k+1)*rows]
	tau  []float64
	rows int
}

// rankTol is the |R_kk| at or below which a solve reports ErrRankDeficient.
const rankTol = 1e-12

// NewQR computes the Householder QR factorization of a. a is not modified.
func NewQR(a *Matrix) (*QR, error) {
	if a.Rows() < a.Cols() {
		return nil, fmt.Errorf("mat: QR requires rows >= cols, got %dx%d", a.Rows(), a.Cols())
	}
	m, n := a.Rows(), a.Cols()
	q := newQR(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			q.a = append(q.a, a.At(i, j))
		}
		q.factorLast()
	}
	return q, nil
}

// newQR returns an empty factorization of rows rows with room for n columns.
func newQR(rows, n int) *QR {
	return &QR{a: make([]float64, 0, rows*n), tau: make([]float64, 0, n), rows: rows}
}

// Reset empties q to the factorization of a rows×0 matrix, keeping its
// storage for the columns Push adds next. The zero QR is ready after Reset.
func (q *QR) Reset(rows int) {
	q.a, q.tau, q.rows = q.a[:0], q.tau[:0], rows
}

// Cols returns the number of columns factored so far.
func (q *QR) Cols() int { return len(q.tau) }

// Push appends col (length rows, copied) as the next column and factors it.
// It panics on a column of the wrong length or when the factorization
// already has as many columns as rows.
func (q *QR) Push(col []float64) {
	if len(col) != q.rows {
		panic(fmt.Sprintf("mat: pushing a column of %d rows onto a %d-row QR", len(col), q.rows))
	}
	if len(q.tau) == q.rows {
		panic(fmt.Sprintf("mat: QR of %d rows is full", q.rows))
	}
	q.a = append(q.a, col...)
	q.factorLast()
}

// Truncate drops every column after the first k, keeping their storage.
func (q *QR) Truncate(k int) {
	q.a, q.tau = q.a[:k*q.rows], q.tau[:k]
}

// factorLast factors the column just appended to q.a: it applies reflectors
// 0..k−1 to it, then forms reflector k.
func (q *QR) factorLast() {
	k, m := len(q.tau), q.rows
	c := q.a[k*m : (k+1)*m]
	q.ApplyQT(c, 0)
	// Compute the norm of column k below the diagonal.
	var norm float64
	for i := k; i < m; i++ {
		norm = math.Hypot(norm, c[i])
	}
	if norm == 0 {
		q.tau = append(q.tau, 0)
		return
	}
	// Choose the reflector sign matching the diagonal to avoid
	// cancellation in v_k = a_kk/norm + 1.
	if c[k] < 0 {
		norm = -norm
	}
	for i := k; i < m; i++ {
		c[i] = c[i] / norm
	}
	c[k] = c[k] + 1
	q.tau = append(q.tau, -norm)
}

// ApplyQT applies reflectors from..Cols()−1, in order, to y (length rows)
// in place. With from == 0 it computes Qᵀy.
func (q *QR) ApplyQT(y []float64, from int) {
	m := q.rows
	for k := from; k < len(q.tau); k++ {
		if q.tau[k] == 0 {
			continue
		}
		v := q.a[k*m : (k+1)*m]
		var s float64
		for i := k; i < m; i++ {
			s += v[i] * y[i]
		}
		s = -s / v[k]
		for i := k; i < m; i++ {
			y[i] = y[i] + s*v[i]
		}
	}
}

// RDiag returns the diagonal of R (the tau values), whose magnitudes signal
// rank deficiency when near zero.
func (q *QR) RDiag() []float64 {
	return append([]float64(nil), q.tau...)
}

// IsFullRank reports whether all diagonal entries of R exceed tol in
// magnitude.
func (q *QR) IsFullRank(tol float64) bool {
	for _, d := range q.tau {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

// FullRankFrom reports whether columns from..Cols()−1 pass the rank check
// of Solve.
func (q *QR) FullRankFrom(from int) bool {
	for _, d := range q.tau[from:] {
		if math.Abs(d) <= rankTol {
			return false
		}
	}
	return true
}

// Solve finds x minimizing ‖a·x − b‖₂ using the stored factorization.
func (q *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != q.rows {
		return nil, fmt.Errorf("mat: rhs length %d, want %d", len(b), q.rows)
	}
	y := append([]float64(nil), b...)
	x := make([]float64, len(q.tau))
	if err := q.SolveFrom(y, 0, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveFrom finishes a least-squares solve whose right-hand side y (length
// rows) already has reflectors 0..from−1 applied: it applies the rest to y
// in place and back-substitutes the Cols() coefficients into x. It checks
// only columns from.. for rank deficiency; the caller checked the earlier
// ones (FullRankFrom) when it applied their reflectors.
func (q *QR) SolveFrom(y []float64, from int, x []float64) error {
	if !q.FullRankFrom(from) {
		return ErrRankDeficient
	}
	q.ApplyQT(y, from)
	// Back-substitute R·x = y.
	n, m := len(q.tau), q.rows
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= q.a[j*m+i] * x[j]
		}
		x[i] = s / q.tau[i]
	}
	return nil
}

// R returns the upper-triangular factor as a cols×cols matrix.
func (q *QR) R() *Matrix {
	n := len(q.tau)
	r := New(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, q.tau[i])
		for j := i + 1; j < n; j++ {
			r.Set(i, j, q.a[j*q.rows+i])
		}
	}
	return r
}

// SolveLeastSquares finds x minimizing ‖a·x − b‖₂.
// It is a convenience wrapper over NewQR + Solve.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	q, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	return q.Solve(b)
}

// SolveRidge solves the ridge-regularized least squares problem
// minimizing ‖a·x − b‖² + λ‖x‖² by augmenting the system with √λ·I.
func SolveRidge(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("mat: negative ridge penalty %g", lambda)
	}
	if lambda == 0 {
		return SolveLeastSquares(a, b)
	}
	// Push the columns of [a; √λ·I] directly: column j carries √λ in row
	// m+j.
	m, n := a.Rows(), a.Cols()
	sq := math.Sqrt(lambda)
	q := newQR(m+n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			q.a = append(q.a, a.At(i, j))
		}
		for i := 0; i < n; i++ {
			v := 0.0
			if i == j {
				v = sq
			}
			q.a = append(q.a, v)
		}
		q.factorLast()
	}
	rhs := make([]float64, m+n)
	copy(rhs, b)
	return q.Solve(rhs)
}
