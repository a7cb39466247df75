package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refQR is the right-looking Householder QR that predates the
// column-incremental one, kept verbatim as the differential oracle: NewQR,
// Solve and SolveRidge must reproduce its R, taus and solutions bit for bit.
type refQR struct {
	qr   *Matrix
	tau  []float64
	rows int
	cols int
}

func refNewQR(a *Matrix) *refQR {
	m, n := a.Rows(), a.Cols()
	q := &refQR{qr: a.Clone(), tau: make([]float64, n), rows: m, cols: n}
	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, q.qr.At(i, k))
		}
		if norm == 0 {
			q.tau[k] = 0
			continue
		}
		if q.qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			q.qr.Set(i, k, q.qr.At(i, k)/norm)
		}
		q.qr.Set(k, k, q.qr.At(k, k)+1)
		q.tau[k] = -norm
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += q.qr.At(i, k) * q.qr.At(i, j)
			}
			s = -s / q.qr.At(k, k)
			for i := k; i < m; i++ {
				q.qr.Set(i, j, q.qr.At(i, j)+s*q.qr.At(i, k))
			}
		}
	}
	return q
}

func (q *refQR) solve(b []float64) ([]float64, error) {
	for _, d := range q.tau {
		if math.Abs(d) <= 1e-12 {
			return nil, ErrRankDeficient
		}
	}
	y := make([]float64, q.rows)
	copy(y, b)
	for k := 0; k < q.cols; k++ {
		if q.tau[k] == 0 {
			continue
		}
		var s float64
		for i := k; i < q.rows; i++ {
			s += q.qr.At(i, k) * y[i]
		}
		s = -s / q.qr.At(k, k)
		for i := k; i < q.rows; i++ {
			y[i] += s * q.qr.At(i, k)
		}
	}
	x := make([]float64, q.cols)
	for i := q.cols - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < q.cols; j++ {
			s -= q.qr.At(i, j) * x[j]
		}
		x[i] = s / q.tau[i]
	}
	return x, nil
}

func refSolveRidge(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	m, n := a.Rows(), a.Cols()
	aug := New(m+n, n)
	for i := 0; i < m; i++ {
		copy(aug.RawRow(i), a.RawRow(i))
	}
	sq := math.Sqrt(lambda)
	for j := 0; j < n; j++ {
		aug.Set(m+j, j, sq)
	}
	rhs := make([]float64, m+n)
	copy(rhs, b)
	return refNewQR(aug).solve(rhs)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSameSolution fails unless both solves returned the same error or
// bit-equal solutions.
func checkSameSolution(t *testing.T, what string, got, want []float64, gerr, werr error) {
	t.Helper()
	if gerr != werr {
		t.Fatalf("%s: error %v, reference %v", what, gerr, werr)
	}
	if !sameBits(got, want) {
		t.Fatalf("%s: solution %v, reference %v", what, got, want)
	}
}

// checkMatchesRef compares NewQR's R, taus and least-squares solution with
// the reference factorization of the same matrix.
func checkMatchesRef(t *testing.T, what string, a *Matrix, b []float64) {
	t.Helper()
	q, err := NewQR(a)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ref := refNewQR(a)
	if !sameBits(q.RDiag(), ref.tau) {
		t.Fatalf("%s: taus %v, reference %v", what, q.RDiag(), ref.tau)
	}
	r := q.R()
	for i := 0; i < ref.cols; i++ {
		for j := i + 1; j < ref.cols; j++ {
			if math.Float64bits(r.At(i, j)) != math.Float64bits(ref.qr.At(i, j)) {
				t.Fatalf("%s: R[%d,%d] = %v, reference %v", what, i, j, r.At(i, j), ref.qr.At(i, j))
			}
		}
	}
	got, gerr := q.Solve(b)
	want, werr := ref.solve(b)
	checkSameSolution(t, what, got, want, gerr, werr)
}

func randomMatrix(rng *rand.Rand, m, n int) (*Matrix, []float64) {
	a := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(7)-3)))
		}
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64() * 100
	}
	return a, b
}

func TestQRMatchesReferenceRandomTall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		m := n + rng.Intn(60)
		a, b := randomMatrix(rng, m, n)
		checkMatchesRef(t, fmt.Sprintf("trial %d (%dx%d)", trial, m, n), a, b)
	}
}

func TestQRMatchesReferenceSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 10; n++ {
		a, b := randomMatrix(rng, n, n)
		checkMatchesRef(t, fmt.Sprintf("%dx%d", n, n), a, b)
	}
}

func TestQRMatchesReferenceZeroColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randomMatrix(rng, 9, 4)
	for i := 0; i < 9; i++ {
		a.Set(i, 2, 0)
	}
	q, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if q.RDiag()[2] != 0 {
		t.Fatalf("zero column: tau %v, want 0", q.RDiag()[2])
	}
	checkMatchesRef(t, "zero column", a, b)
	if _, err := q.Solve(b); err != ErrRankDeficient {
		t.Fatalf("zero column solve: %v, want ErrRankDeficient", err)
	}
}

func TestQRMatchesReferenceRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randomMatrix(rng, 12, 5)
	for i := 0; i < 12; i++ {
		a.Set(i, 3, 2*a.At(i, 1)-a.At(i, 0))
	}
	checkMatchesRef(t, "dependent column", a, b)
	dup, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	checkMatchesRef(t, "duplicate column", dup, []float64{1, 2, 3})
	if _, err := SolveLeastSquares(dup, []float64{1, 2, 3}); err != ErrRankDeficient {
		t.Fatalf("duplicate column: %v, want ErrRankDeficient", err)
	}
}

func TestSolveRidgeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(60)
		a, b := randomMatrix(rng, m, n)
		if trial%5 == 0 {
			// A duplicated column only the ridge rows keep solvable.
			for i := 0; i < m; i++ {
				a.Set(i, n-1, a.At(i, 0))
			}
		}
		lambda := []float64{1e-10, 1e-8, 1e-6, 1}[trial%4]
		got, gerr := SolveRidge(a, b, lambda)
		want, werr := refSolveRidge(a, b, lambda)
		checkSameSolution(t, fmt.Sprintf("trial %d (%dx%d, λ=%g)", trial, m, n, lambda), got, want, gerr, werr)
	}
}

// TestQRTruncateAndPush: a shared prefix, truncated back to and extended
// with different trailing columns, solves bit-identically to a fresh
// factorization of each full matrix, with the prefix's Qᵀb applied once.
func TestQRTruncateAndPush(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		m := k + 2 + rng.Intn(40)
		prefix, b := randomMatrix(rng, m, k)
		var q QR
		q.Reset(m)
		for j := 0; j < k; j++ {
			q.Push(prefix.Col(j))
		}
		if q.Cols() != k || !q.FullRankFrom(0) {
			t.Fatalf("trial %d: prefix of %d columns, full rank %v", trial, q.Cols(), q.FullRankFrom(0))
		}
		qtb := append([]float64(nil), b...)
		q.ApplyQT(qtb, 0)
		for cand := 0; cand < 4; cand++ {
			tail, _ := randomMatrix(rng, m, 2)
			full := New(m, k+2)
			for i := 0; i < m; i++ {
				for j := 0; j < k; j++ {
					full.Set(i, j, prefix.At(i, j))
				}
				full.Set(i, k, tail.At(i, 0))
				full.Set(i, k+1, tail.At(i, 1))
			}
			q.Truncate(k)
			q.Push(tail.Col(0))
			q.Push(tail.Col(1))
			y := append([]float64(nil), qtb...)
			got := make([]float64, k+2)
			gerr := q.SolveFrom(y, k, got)
			want, werr := refNewQR(full).solve(b)
			if gerr != nil {
				got = nil
			}
			checkSameSolution(t, fmt.Sprintf("trial %d candidate %d", trial, cand), got, want, gerr, werr)
		}
	}
}

func TestQRPushPanicsOnMisuse(t *testing.T) {
	for name, f := range map[string]func(){
		"wrong length": func() {
			var q QR
			q.Reset(3)
			q.Push([]float64{1, 2})
		},
		"more columns than rows": func() {
			var q QR
			q.Reset(1)
			q.Push([]float64{1})
			q.Push([]float64{2})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
