package mat

import (
	"math"
	"testing"
	"testing/quick"
)

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

func TestSolveExactSystem(t *testing.T) {
	// Square, well-conditioned: x = [1, -2, 3].
	a, _ := FromRows([][]float64{
		{2, 1, 1},
		{1, 3, 2},
		{1, 0, 0},
	})
	want := []float64{1, -2, 3}
	b, _ := a.MulVec(want)
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-9) {
			t.Fatalf("x=%v want %v", x, want)
		}
	}
}

func TestSolveOverdetermined(t *testing.T) {
	// y = 2 + 3t fitted from 10 exact points: residual must vanish.
	n := 10
	a := New(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		tt := float64(i)
		a.Set(i, 0, 1)
		a.Set(i, 1, tt)
		b[i] = 2 + 3*tt
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-9) || !almostEq(x[1], 3, 1e-9) {
		t.Fatalf("x=%v want [2 3]", x)
	}
}

func TestSolveLeastSquaresResidualOrthogonality(t *testing.T) {
	// For inconsistent systems the residual must be orthogonal to the
	// column space: Aᵀ(Ax−b) = 0.
	a, _ := FromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	b := []float64{0, 1, 1, 3}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	res := make([]float64, len(b))
	for i := range b {
		res[i] = ax[i] - b[i]
	}
	atr, _ := a.T().MulVec(res)
	for _, v := range atr {
		if !almostEq(v, 0, 1e-9) {
			t.Fatalf("residual not orthogonal: %v", atr)
		}
	}
}

func TestSolveCubicBasisConditioning(t *testing.T) {
	// The counter models fit cubics on sizes up to 2048 — the regression
	// that exposed the original Householder sign bug.
	sizes := []float64{32, 112, 208, 304, 400, 496, 592, 688, 784, 896}
	a := New(len(sizes), 4)
	b := make([]float64, len(sizes))
	for i, n := range sizes {
		a.Set(i, 0, 1)
		a.Set(i, 1, n)
		a.Set(i, 2, n*n)
		a.Set(i, 3, n*n*n)
		b[i] = 2 + 3*n + 0.5*n*n
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[1], 3, 1e-4) || !almostEq(x[2], 0.5, 1e-6) || !almostEq(x[3], 0, 1e-8) {
		t.Fatalf("cubic fit unstable: %v", x)
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Duplicate columns: plain solve must refuse.
	a, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := SolveLeastSquares(a, []float64{1, 2, 3}); err != ErrRankDeficient {
		t.Fatalf("want ErrRankDeficient, got %v", err)
	}
	// Ridge regularization must succeed and split weight evenly.
	x, err := SolveRidge(a, []float64{1, 2, 3}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], x[1], 1e-6) {
		t.Fatalf("ridge did not symmetrize duplicate columns: %v", x)
	}
}

func TestSolveRidgeNegativeLambda(t *testing.T) {
	a := New(2, 2)
	if _, err := SolveRidge(a, []float64{0, 0}, -1); err == nil {
		t.Fatal("negative ridge penalty accepted")
	}
}

func TestQRRejectsWide(t *testing.T) {
	if _, err := NewQR(New(2, 3)); err == nil {
		t.Fatal("wide matrix accepted")
	}
}

func TestQRSolveWrongRHS(t *testing.T) {
	q, err := NewQR(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Solve([]float64{1}); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}

func TestQRRMatchesProduct(t *testing.T) {
	// ‖R‖F = ‖A‖F since Q is orthogonal.
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	q, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(q.R().FrobeniusNorm(), a.FrobeniusNorm(), 1e-9) {
		t.Fatalf("‖R‖=%v, ‖A‖=%v", q.R().FrobeniusNorm(), a.FrobeniusNorm())
	}
}

func TestQRIsFullRank(t *testing.T) {
	q, err := NewQR(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsFullRank(1e-12) {
		t.Fatal("identity reported rank-deficient")
	}
}

// Property: for random consistent systems, Solve recovers the generator.
func TestQRSolveRecoversSolution(t *testing.T) {
	f := func(seedVals [8]float64, xv [2]float64) bool {
		a := New(4, 2)
		for i := 0; i < 4; i++ {
			for j := 0; j < 2; j++ {
				v := seedVals[i*2+j]
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
					return true // skip pathological draws
				}
				a.Set(i, j, v)
			}
		}
		for _, v := range xv {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		q, err := NewQR(a)
		if err != nil {
			return false
		}
		if !q.IsFullRank(1e-8 * (1 + a.FrobeniusNorm())) {
			return true // nearly singular draw: skip
		}
		b, _ := a.MulVec(xv[:])
		x, err := q.Solve(b)
		if err != nil {
			return true // rank threshold said no; fine
		}
		scale := 1 + math.Abs(xv[0]) + math.Abs(xv[1])
		return almostEq(x[0], xv[0], 1e-5*scale) && almostEq(x[1], xv[1], 1e-5*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
