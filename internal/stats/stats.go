// Package stats provides the descriptive statistics, confidence intervals,
// outlier rejection, and histogram utilities used throughout the
// performance-engineering toolbox.
//
// Performance engineering is an empirical discipline: every measurement in
// this repository is reported with its dispersion and, where meaningful, a
// confidence interval, as the course's "Basics of performance" lectures
// require (correct measurement and communication of performance data).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Kahan summation keeps long benchmark series accurate.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (divisor n-1) of xs.
// It returns 0 when fewer than two samples are present.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Stddev returns the sample standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoefficientOfVariation returns stddev/mean, the standard dimensionless
// stability indicator for repeated performance measurements. It returns 0
// when the mean is 0.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return Stddev(xs) / m
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	min := math.Inf(1)
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}

// Sum returns the Kahan-compensated sum of xs.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile of a slice already sorted ascending,
// read in place: a caller that wants several percentiles of one sample
// sorts it once.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// GeoMean returns the geometric mean of xs. All samples must be positive;
// non-positive samples yield NaN, as the geometric mean is undefined there.
// The geometric mean is the correct way to average speedups across
// benchmarks (Fleming & Wallace).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// HarmonicMean returns the harmonic mean of xs, the correct average for
// rates (e.g. bandwidths over equal volumes). Non-positive samples yield NaN.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var invSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		invSum += 1 / x
	}
	return float64(len(xs)) / invSum
}

// Summary bundles the descriptive statistics of one measurement series.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Stddev float64
	Min    float64
	Max    float64
	P5     float64
	P95    float64
	CV     float64 // coefficient of variation (stddev/mean)
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		Stddev: Stddev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		P5:     Percentile(xs, 5),
		P95:    Percentile(xs, 95),
		CV:     CoefficientOfVariation(xs),
	}
}

// Correlation returns the Pearson correlation coefficient between xs and ys.
// It returns an error when the lengths differ or fewer than two pairs exist.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
