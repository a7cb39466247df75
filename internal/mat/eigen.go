package mat

import (
	"errors"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a real symmetric matrix:
// A = V·diag(Values)·Vᵀ, with eigenvalues sorted in descending order and
// eigenvectors stored as the columns of Vectors.
type Eigen struct {
	Values  []float64
	Vectors *Matrix
}

// maxJacobiSweeps bounds the cyclic Jacobi iteration; convergence for
// well-conditioned covariance matrices typically needs fewer than 15 sweeps.
const maxJacobiSweeps = 100

// SymEigen computes the eigendecomposition of the symmetric matrix a using
// the cyclic Jacobi method. a is not modified.
func SymEigen(a *Matrix) (*Eigen, error) {
	if a.Rows() != a.Cols() {
		return nil, errors.New("mat: eigendecomposition requires a square matrix")
	}
	if !a.IsSymmetric(1e-9 * (1 + a.FrobeniusNorm())) {
		return nil, errors.New("mat: matrix is not symmetric")
	}
	n := a.Rows()
	w := a.Clone()
	v := Identity(n)

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += w.At(i, j) * w.At(i, j)
			}
		}
		return s
	}

	tol := 1e-22 * (1 + w.FrobeniusNorm()*w.FrobeniusNorm())
	for sweep := 0; sweep < maxJacobiSweeps && offDiag() > tol; sweep++ {
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Apply the rotation to rows/columns p and q.
				for k := 0; k < n; k++ {
					akp, akq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	// Extract and sort eigenpairs by descending eigenvalue. The sort is
	// stable, so equal eigenvalues keep their diagonal order.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{w.At(i, i), i}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	e := &Eigen{Values: make([]float64, n), Vectors: New(n, n)}
	for out, p := range pairs {
		e.Values[out] = p.val
		for k := 0; k < n; k++ {
			e.Vectors.Set(k, out, v.At(k, p.idx))
		}
	}
	return e, nil
}
