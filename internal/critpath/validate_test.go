package critpath

import (
	"testing"
	"time"

	"perfeng/internal/obs"
	"perfeng/internal/stats"
)

// TestWhatIfMatchesMeasured is the causal-profiling validation
// experiment recorded in EXPERIMENTS.md: the what-if engine predicts
// the end-to-end effect of halving the hottest span from ONE recorded
// baseline run, and the prediction is checked against actually running
// the halved workload. The prediction reads the obs clock of real runs;
// the measurement is the process CPU time of the same runs, which a time
// slice lost to another process (another test binary, under `go test
// ./...`) does not inflate. Welch's t-test first confirms the
// intervention's effect is statistically real, then the prediction must
// land within a tolerance that covers scheduler noise on shared machines,
// and the measurement within what halving the span can physically give.
func TestWhatIfMatchesMeasured(t *testing.T) {
	spinSink := 0.0
	spin := func(iters int) {
		acc := 0.0
		for i := 0; i < iters; i++ {
			acc += float64(i&15) * 0.25
		}
		spinSink += acc
	}
	const hotIters, coldIters = 2_000_000, 500_000

	// One run = hot phase then cold phase, serially, under real spans.
	run := func(hot int) *obs.Session {
		s := obs.NewSession("whatif-validate")
		host := s.Track("host")
		err := host.Span("workload", func() {
			if err := host.Span("hot", func() { spin(hot) }); err != nil {
				t.Fatal(err)
			}
			if err := host.Span("cold", func() { spin(coldIters) }); err != nil {
				t.Fatal(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// cpuRun is run timed by process CPU time.
	cpuRun := func(hot int) (*obs.Session, float64) {
		c0 := processCPU()
		s := run(hot)
		return s, (processCPU() - c0).Seconds()
	}

	const reps = 36
	// Warm both shapes before sampling: the first executions pay cold
	// caches and frequency ramp, which would land entirely in the
	// baseline sample and bias the comparison.
	run(hotIters)
	run(hotIters / 2)
	var base, halved []float64
	var predicted []float64
	for i := 0; i < reps; i++ {
		s, c := cpuRun(hotIters)
		base = append(base, c)
		rep, err := Analyze(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, wi := range rep.WhatIf {
			if wi.Name != "hot" {
				continue
			}
			for j, f := range wi.Factors {
				if f == 0.50 {
					predicted = append(predicted, wi.Speedups[j])
				}
			}
		}
		_, c = cpuRun(hotIters / 2)
		halved = append(halved, c)
	}
	if len(predicted) != reps {
		t.Fatalf("what-if table lacked a ×0.50 entry for the hot span (%d/%d)", len(predicted), reps)
	}

	// The intervention must be statistically real before its size is
	// compared to the prediction. A rep preempted by another process on
	// a shared machine is an outlier, not a measurement of the workload:
	// the Welch test sees the samples through the Tukey fence the
	// measurement runner and benchgate apply.
	w, err := stats.WelchTTest(stats.RejectIQR(base, 1.5), stats.RejectIQR(halved, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if !w.Significant(0.01) {
		t.Fatalf("halving the hot span did not significantly change wall time (p=%g)", w.P)
	}

	// Each rep runs the two shapes back to back, so a slow stretch of
	// the machine hits both halves of a pair: compare the median of the
	// paired ratios, which such a stretch does not move.
	ratios := make([]float64, reps)
	for i := range ratios {
		ratios[i] = base[i] / halved[i]
	}
	measured := (stats.Median(ratios) - 1) * 100
	pred := stats.Median(predicted)
	t.Logf("baseline CPU %v ±%.1f%%, halved CPU %v ±%.1f%%",
		time.Duration(stats.Mean(base)*1e9), 100*stats.Stddev(base)/stats.Mean(base),
		time.Duration(stats.Mean(halved)*1e9), 100*stats.Stddev(halved)/stats.Mean(halved))
	t.Logf("what-if ×0.50 on hot: predicted %+.1f%%, measured %+.1f%% (Welch p=%.3g)", pred, measured, w.P)

	if measured < 20 {
		t.Fatalf("measured speedup %.1f%% too small — workload shape broken", measured)
	}
	// The hot span is hotIters of the run's hotIters+coldIters spin
	// iterations, so halving it speeds the run up by at most +66.7%. The
	// CPU-time median lands within a few points of that; beyond the
	// 15-point noise floor the prediction check allows too, it is
	// disturbance, not workload.
	if limit := 100 * (float64(hotIters+coldIters)/float64(hotIters/2+coldIters) - 1); measured > limit+15 {
		t.Fatalf("measured speedup %+.1f%% exceeds the %+.1f%% that halving the hot span can give", measured, limit)
	}
	// The replay is conservative by construction (it keeps the recorded
	// schedule), and spin loops jitter on shared machines: accept the
	// prediction within 15 points or 40%% of the measured gain,
	// whichever is looser.
	tol := 0.40 * measured
	if tol < 15 {
		tol = 15
	}
	if diff := pred - measured; diff < -tol || diff > tol {
		t.Fatalf("what-if prediction %+.1f%% vs measured %+.1f%% — outside ±%.1f points", pred, measured, tol)
	}
	_ = spinSink
}
