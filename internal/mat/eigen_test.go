package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	d, _ := FromRows([][]float64{{3, 0}, {0, 1}})
	e, err := SymEigen(d)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.Values[0], 3, 1e-10) || !almostEq(e.Values[1], 1, 1e-10) {
		t.Fatalf("eigenvalues %v", e.Values)
	}
}

// TestSymEigenTiesKeepDiagonalOrder: equal eigenvalues come out in the
// order of their diagonal positions. The matrix is diagonal, so Jacobi
// leaves it alone and eigenpair j is (d[j], e_j). It has more than 12
// entries, past the size below which the standard library's sort is an
// insertion sort and would keep ties in place without a tie-break.
func TestSymEigenTiesKeepDiagonalOrder(t *testing.T) {
	const n = 30
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		rows[i][i] = float64(i % 3)
	}
	d, _ := FromRows(rows)
	e, err := SymEigen(d)
	if err != nil {
		t.Fatal(err)
	}
	out := 0
	for v := 2; v >= 0; v-- {
		for i := v; i < n; i += 3 {
			if e.Values[out] != float64(v) || e.Vectors.At(i, out) != 1 {
				t.Fatalf("eigenpair %d: value %v, want %d with e_%d", out, e.Values[out], v, i)
			}
			out++
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2, (1,−1)/√2.
	m, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	e, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.Values[0], 3, 1e-10) || !almostEq(e.Values[1], 1, 1e-10) {
		t.Fatalf("eigenvalues %v", e.Values)
	}
	v0 := []float64{e.Vectors.At(0, 0), e.Vectors.At(1, 0)}
	if !almostEq(math.Abs(v0[0]), math.Sqrt2/2, 1e-8) || !almostEq(v0[0], v0[1], 1e-8) {
		t.Fatalf("first eigenvector %v", v0)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	m, _ := FromRows([][]float64{
		{4, 1, 0.5},
		{1, 3, -0.2},
		{0.5, -0.2, 2},
	})
	e, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild A = V·diag(λ)·Vᵀ.
	n := 3
	rebuilt := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += e.Vectors.At(i, k) * e.Values[k] * e.Vectors.At(j, k)
			}
			rebuilt.Set(i, j, s)
		}
	}
	diff, _ := rebuilt.Sub(m)
	if diff.FrobeniusNorm() > 1e-9 {
		t.Fatalf("reconstruction error %v", diff.FrobeniusNorm())
	}
}

func TestSymEigenRejects(t *testing.T) {
	if _, err := SymEigen(New(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
	asym, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := SymEigen(asym); err == nil {
		t.Fatal("asymmetric accepted")
	}
}

// Property: eigenvectors are orthonormal and eigenvalues sum to the trace.
func TestSymEigenProperties(t *testing.T) {
	f := func(v [6]float64) bool {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
		}
		// Build a symmetric 3x3 from 6 free entries.
		m, _ := FromRows([][]float64{
			{v[0], v[1], v[2]},
			{v[1], v[3], v[4]},
			{v[2], v[4], v[5]},
		})
		e, err := SymEigen(m)
		if err != nil {
			return false
		}
		scale := 1 + m.FrobeniusNorm()
		// Trace preservation.
		trace := v[0] + v[3] + v[5]
		sum := e.Values[0] + e.Values[1] + e.Values[2]
		if !almostEq(trace, sum, 1e-8*scale) {
			return false
		}
		// Orthonormal columns.
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				var dot float64
				for k := 0; k < 3; k++ {
					dot += e.Vectors.At(k, a) * e.Vectors.At(k, b)
				}
				want := 0.0
				if a == b {
					want = 1
				}
				if !almostEq(dot, want, 1e-8) {
					return false
				}
			}
		}
		// Sorted descending.
		return e.Values[0] >= e.Values[1] && e.Values[1] >= e.Values[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
