// Package stats provides the descriptive statistics, deterministic random
// number generation, and resampling utilities shared by the BlackForest
// modeling stack.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance of xs.
// Slices with fewer than two elements have variance 0.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// SumSquaredDev returns Σ(x−mean)², the total sum of squares.
func SumSquaredDev(xs []float64) float64 {
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s
}

// Covariance returns the unbiased sample covariance of xs and ys.
// It panics if the slices differ in length.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: covariance of unequal-length slices")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n-1)
}

// Correlation returns the Pearson correlation coefficient of xs and ys,
// or 0 when either series is constant.
func Correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

// MSE returns the mean squared error between predictions and truth.
// It panics if the slices differ in length.
func MSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stats: MSE of unequal-length slices")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// MedianAbsPctError returns the median of |pred−truth|/|truth| over entries
// with truth ≠ 0 — the accuracy measure quoted by the paper's related work.
func MedianAbsPctError(pred, truth []float64) float64 {
	var errs []float64
	for i := range pred {
		if truth[i] != 0 {
			errs = append(errs, math.Abs(pred[i]-truth[i])/math.Abs(truth[i]))
		}
	}
	if len(errs) == 0 {
		return 0
	}
	return Quantile(errs, 0.5)
}

// RSquared returns the coefficient of determination of pred against truth.
// A constant truth series yields 0.
func RSquared(pred, truth []float64) float64 {
	tss := SumSquaredDev(truth)
	if tss == 0 {
		return 0
	}
	var rss float64
	for i := range pred {
		d := truth[i] - pred[i]
		rss += d * d
	}
	return 1 - rss/tss
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Min returns the smallest value in xs; +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs; −Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Standardize returns (xs−mean)/sd along with the mean and sd used.
// A constant series is centered and left unscaled (sd reported as 1).
func Standardize(xs []float64) (z []float64, mean, sd float64) {
	mean = Mean(xs)
	sd = StdDev(xs)
	if sd == 0 {
		sd = 1
	}
	z = make([]float64, len(xs))
	for i, x := range xs {
		z[i] = (x - mean) / sd
	}
	return z, mean, sd
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}
