package metrics

import (
	"errors"
	"fmt"
	"math"

	"perfeng/internal/stats"
)

// Statistically sound A/B comparison of two measurements (the "correct
// measurement and communication of performance data" lecture): Welch's
// unequal-variance t-test on the repetition series, so a reported speedup
// comes with the probability that it is noise.

// Comparison is the verdict of CompareMeasurements.
type Comparison struct {
	A, B string
	// Speedup is medianA / medianB (> 1 means B is faster).
	Speedup float64
	// Verdict is stats.Compare of A's series against B's with no effect
	// floor: Significant is P < Alpha.
	stats.Verdict
	Alpha float64
}

// String renders the verdict.
func (c Comparison) String() string {
	rel := "not significant"
	if c.Significant {
		rel = "significant"
	}
	return fmt.Sprintf("%s vs %s: speedup %.2fx (p=%.4f, %s at alpha=%.2g)",
		c.A, c.B, c.Speedup, c.P, rel, c.Alpha)
}

// CompareMeasurements judges b's runtime series against a's with
// stats.Compare (Welch's t-test) at alpha and no effect floor. alpha <= 0
// defaults to 0.05. Both series need >= 2 samples.
func CompareMeasurements(a, b *Measurement, alpha float64) (Comparison, error) {
	if alpha <= 0 {
		alpha = 0.05
	}
	v, err := stats.Compare(a.Seconds, b.Seconds, alpha, 0)
	if err != nil {
		return Comparison{}, err
	}
	c := Comparison{A: a.Name, B: b.Name, Verdict: v, Alpha: alpha}
	if stats.Mean(b.Seconds) > 0 {
		c.Speedup = a.MedianSeconds() / b.MedianSeconds()
	}
	return c, nil
}

// SuiteSummary aggregates per-benchmark speedups the statistically correct
// way: geometric mean for ratios (Fleming & Wallace), with min and max for
// the spread.
type SuiteSummary struct {
	N              int
	GeoMeanSpeedup float64
	MinSpeedup     float64
	MaxSpeedup     float64
}

// SummarizeSuite computes the suite-level speedup of optimized runs over
// baselines, matched by index. Lengths must agree and be non-empty.
func SummarizeSuite(baselines, optimized []*Measurement) (SuiteSummary, error) {
	if len(baselines) != len(optimized) || len(baselines) == 0 {
		return SuiteSummary{}, errors.New("metrics: suite needs matching non-empty series")
	}
	speedups := make([]float64, len(baselines))
	for i := range baselines {
		sp := Speedup(baselines[i], optimized[i])
		if math.IsNaN(sp) || sp <= 0 {
			return SuiteSummary{}, fmt.Errorf("metrics: degenerate speedup at %d", i)
		}
		speedups[i] = sp
	}
	return SuiteSummary{
		N:              len(speedups),
		GeoMeanSpeedup: stats.GeoMean(speedups),
		MinSpeedup:     stats.Min(speedups),
		MaxSpeedup:     stats.Max(speedups),
	}, nil
}
