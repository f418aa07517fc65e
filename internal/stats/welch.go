package stats

import (
	"errors"
	"math"
)

// Welch's unequal-variance t-test and Compare, the one verdict rule every
// layer that compares repeated measurements shares — engagement verdicts
// (internal/metrics), autotuner promotions and cache verification
// (internal/tune, perfeng tune) and the benchmark-regression gate
// (internal/benchgate) — for the course's "is this difference noise?"
// question. Each caller passes its own alpha and practical-effect floor.

// ErrTooFewSamples is returned when a test needs more repetitions.
var ErrTooFewSamples = errors.New("stats: need >= 2 samples per side")

// Welch is the outcome of Welch's two-sample t-test.
type Welch struct {
	T  float64 // t statistic (mean(a) - mean(b), standardized)
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value for "the means differ"
}

// Significant reports whether the difference is significant at level alpha.
func (w Welch) Significant(alpha float64) bool { return w.P < alpha }

// WelchTTest runs Welch's unequal-variance t-test on two sample series.
// Both series need at least two samples. Two identical constant series
// yield P = 1 (no evidence of difference); two different constant series
// yield P = 0 (a difference with zero within-group variance).
func WelchTTest(a, b []float64) (Welch, error) {
	if len(a) < 2 || len(b) < 2 {
		return Welch{}, ErrTooFewSamples
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	se2 := va/na + vb/nb
	if se2 == 0 {
		if ma == mb {
			return Welch{P: 1}, nil
		}
		return Welch{T: math.Inf(1), P: 0}, nil
	}
	w := Welch{T: (ma - mb) / math.Sqrt(se2)}
	w.DF = se2 * se2 / ((va*va)/(na*na*(na-1)) + (vb*vb)/(nb*nb*(nb-1)))
	w.P = 2 * (1 - TCDF(math.Abs(w.T), w.DF))
	if w.P > 1 {
		w.P = 1
	}
	return w, nil
}

// Verdict is the outcome of Compare.
type Verdict struct {
	Welch // base vs cand: T > 0 when cand's mean is smaller
	// Shift is the relative mean shift (mean(cand)-mean(base))/mean(base);
	// 0 when mean(base) is not positive.
	Shift float64
	// Significant is P < alpha and |Shift| >= minEffect.
	Significant bool
}

// Compare runs Welch's t-test of cand against base and judges the shift:
// significant at alpha and at least minEffect in relative size. The sign
// of Shift says which way it went. Both series need at least two samples.
func Compare(base, cand []float64, alpha, minEffect float64) (Verdict, error) {
	w, err := WelchTTest(base, cand)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Welch: w}
	if mb := Mean(base); mb > 0 {
		v.Shift = (Mean(cand) - mb) / mb
	}
	v.Significant = w.Significant(alpha) && math.Abs(v.Shift) >= minEffect
	return v, nil
}
