package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"perfeng/internal/linalg"
	"perfeng/internal/metrics"
)

// ScalingStudy is the strong-scaling analysis of learning objective 4/6:
// measure a parallel implementation across worker counts, compute speedup
// and efficiency, fit Amdahl's law to estimate the serial fraction, and
// report the Karp-Flatt diagnostic per point.

// ScalingPoint is one measured worker count.
type ScalingPoint struct {
	Workers    int
	Seconds    float64
	Speedup    float64
	Efficiency float64
	KarpFlatt  float64
}

// ScalingResult is the outcome of a study.
type ScalingResult struct {
	Name   string
	Points []ScalingPoint
	// SerialFraction is the Amdahl serial fraction fitted by least
	// squares over all points (NaN when the fit is impossible).
	SerialFraction float64
	// AmdahlLimit is the asymptotic speedup 1/SerialFraction.
	AmdahlLimit float64
}

// RunScalingStudy measures run(workers) for each worker count (which must
// start at 1, the sequential baseline) round-robin under the given
// protocol.
func RunScalingStudy(name string, workerCounts []int, cfg metrics.RunnerConfig, run func(workers int)) (*ScalingResult, error) {
	if len(workerCounts) < 2 || workerCounts[0] != 1 {
		return nil, errors.New("core: scaling study needs worker counts starting at 1")
	}
	ops := make([]metrics.Op, len(workerCounts))
	for i, w := range workerCounts {
		if w < 1 {
			return nil, fmt.Errorf("core: invalid worker count %d", w)
		}
		ops[i] = metrics.Op{Name: name + "/w=" + strconv.Itoa(w), Run: func() { run(w) }}
	}
	seconds := make([]float64, len(workerCounts))
	for i, m := range metrics.NewRunner(cfg).MeasureAll(ops) {
		seconds[i] = m.MedianSeconds()
	}
	return FitScaling(name, workerCounts, seconds)
}

// FitScaling builds the result from already-measured runtimes (exposed
// separately so model-generated or externally measured series can be
// analyzed identically).
func FitScaling(name string, workers []int, seconds []float64) (*ScalingResult, error) {
	if len(workers) != len(seconds) || len(workers) < 2 {
		return nil, errors.New("core: scaling fit needs matching series of >= 2 points")
	}
	if workers[0] != 1 {
		return nil, errors.New("core: first point must be the sequential baseline")
	}
	t1 := seconds[0]
	if t1 <= 0 {
		return nil, errors.New("core: non-positive baseline runtime")
	}
	res := &ScalingResult{Name: name}
	for i, w := range workers {
		if seconds[i] <= 0 {
			return nil, fmt.Errorf("core: non-positive runtime at w=%d", w)
		}
		sp := t1 / seconds[i]
		p := ScalingPoint{
			Workers:    w,
			Seconds:    seconds[i],
			Speedup:    sp,
			Efficiency: sp / float64(w),
			KarpFlatt:  metrics.KarpFlatt(sp, w),
		}
		res.Points = append(res.Points, p)
	}
	res.SerialFraction = fitAmdahl(res.Points)
	if res.SerialFraction > 0 {
		res.AmdahlLimit = 1 / res.SerialFraction
	} else {
		res.AmdahlLimit = math.Inf(1)
	}
	return res, nil
}

// fitAmdahl fits T(p) = t1*(f + (1-f)/p) by least squares on the
// normalized runtimes: T(p)/t1 = f*(1 - 1/p) + 1/p, a one-parameter
// linear problem in f.
func fitAmdahl(pts []ScalingPoint) float64 {
	t1 := pts[0].Seconds
	var rows int
	for _, p := range pts {
		if p.Workers > 1 {
			rows++
		}
	}
	if rows == 0 {
		return math.NaN()
	}
	a := linalg.NewMatrix(rows, 1)
	b := make([]float64, rows)
	i := 0
	for _, p := range pts {
		if p.Workers == 1 {
			continue
		}
		invP := 1 / float64(p.Workers)
		a.Set(i, 0, 1-invP)
		b[i] = p.Seconds/t1 - invP
		i++
	}
	x, err := linalg.SolveLeastSquares(a, b)
	if err != nil {
		return math.NaN()
	}
	f := x[0]
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}

// WeakScalingPoint is one measured worker count of a weak-scaling study
// (problem size grows with workers).
type WeakScalingPoint struct {
	Workers int
	Seconds float64
	// ScaledSpeedup is the Gustafson speedup: p * t1/tp normalized so
	// ideal weak scaling (constant runtime) gives speedup == p.
	ScaledSpeedup float64
	Efficiency    float64 // t1/tp; 1 means perfect weak scaling
}

// WeakScalingResult is the outcome of a weak-scaling study.
type WeakScalingResult struct {
	Name   string
	Points []WeakScalingPoint
	// SerialFraction is the Gustafson serial fraction fitted from the
	// scaled speedups: S(p) = p - f*(p-1).
	SerialFraction float64
}

// FitWeakScaling analyzes runtimes where the per-worker problem size is
// constant (total work grows with p). workers must start at 1.
func FitWeakScaling(name string, workers []int, seconds []float64) (*WeakScalingResult, error) {
	if len(workers) != len(seconds) || len(workers) < 2 {
		return nil, errors.New("core: weak scaling needs matching series of >= 2 points")
	}
	if workers[0] != 1 {
		return nil, errors.New("core: first point must be the sequential baseline")
	}
	t1 := seconds[0]
	if t1 <= 0 {
		return nil, errors.New("core: non-positive baseline runtime")
	}
	res := &WeakScalingResult{Name: name}
	for i, w := range workers {
		if seconds[i] <= 0 {
			return nil, fmt.Errorf("core: non-positive runtime at w=%d", w)
		}
		eff := t1 / seconds[i]
		res.Points = append(res.Points, WeakScalingPoint{
			Workers:       w,
			Seconds:       seconds[i],
			ScaledSpeedup: float64(w) * eff,
			Efficiency:    eff,
		})
	}
	// Fit S(p) = p - f*(p-1) by least squares over p > 1.
	var num, den float64
	for _, p := range res.Points {
		if p.Workers == 1 {
			continue
		}
		pm1 := float64(p.Workers - 1)
		num += pm1 * (float64(p.Workers) - p.ScaledSpeedup)
		den += pm1 * pm1
	}
	if den > 0 {
		f := num / den
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		res.SerialFraction = f
	} else {
		res.SerialFraction = math.NaN()
	}
	return res, nil
}

// String renders the weak-scaling table.
func (r *WeakScalingResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "weak scaling: %s\n", r.Name)
	sb.WriteString("  p   time        scaled-speedup  efficiency\n")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%3d   %-10s  %13.2fx  %9.0f%%\n",
			p.Workers, metrics.FormatSeconds(p.Seconds), p.ScaledSpeedup,
			p.Efficiency*100)
	}
	if !math.IsNaN(r.SerialFraction) {
		fmt.Fprintf(&sb, "Gustafson fit: serial fraction %.3f\n", r.SerialFraction)
	}
	return sb.String()
}

// String renders the scaling table with the Amdahl verdict.
func (r *ScalingResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "strong scaling: %s\n", r.Name)
	sb.WriteString("  p   time        speedup  efficiency  karp-flatt\n")
	for _, p := range r.Points {
		kf := "-"
		if !math.IsNaN(p.KarpFlatt) {
			kf = strconv.FormatFloat(p.KarpFlatt, 'f', 3, 64)
		}
		fmt.Fprintf(&sb, "%3d   %-10s  %6.2fx  %9.0f%%  %s\n",
			p.Workers, metrics.FormatSeconds(p.Seconds), p.Speedup,
			p.Efficiency*100, kf)
	}
	if !math.IsNaN(r.SerialFraction) {
		fmt.Fprintf(&sb, "Amdahl fit: serial fraction %.3f -> speedup limit %.1fx\n",
			r.SerialFraction, r.AmdahlLimit)
	}
	return sb.String()
}
