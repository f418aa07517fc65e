package metrics

import (
	"time"

	"perfeng/internal/stats"
)

// RunnerConfig controls the measurement protocol.
type RunnerConfig struct {
	// Warmup is the number of untimed executions before measurement starts
	// (cache warming, JIT-free in Go but still page faults, frequency ramp).
	Warmup int
	// MinRuns and MaxRuns bound the repetition count.
	MinRuns, MaxRuns int
	// TargetRelCI stops repetition early once the 95% CI half-width is
	// below this fraction of the mean (0 disables adaptive stopping).
	TargetRelCI float64
	// MinSampleTime makes the runner batch very short operations so one
	// recorded sample is at least this long, dividing by the batch size.
	MinSampleTime time.Duration
	// RejectOutliers applies Tukey IQR rejection (k=1.5) to the series
	// before it is stored.
	RejectOutliers bool
}

// DefaultConfig returns the protocol used across the toolbox: 3 warm-ups,
// 10–30 repetitions, stop at 5% relative CI, IQR outlier rejection.
func DefaultConfig() RunnerConfig {
	return RunnerConfig{
		Warmup:         3,
		MinRuns:        10,
		MaxRuns:        30,
		TargetRelCI:    0.05,
		MinSampleTime:  time.Millisecond,
		RejectOutliers: true,
	}
}

// QuickConfig returns a fast protocol for tests and smoke runs.
func QuickConfig() RunnerConfig {
	return RunnerConfig{Warmup: 1, MinRuns: 3, MaxRuns: 5, MinSampleTime: 0}
}

// Runner executes operations under a measurement protocol.
type Runner struct {
	cfg RunnerConfig
}

// NewRunner returns a Runner with the given configuration; zero-valued
// fields fall back to DefaultConfig choices.
func NewRunner(cfg RunnerConfig) *Runner {
	def := DefaultConfig()
	if cfg.MinRuns <= 0 {
		cfg.MinRuns = def.MinRuns
	}
	if cfg.MaxRuns < cfg.MinRuns {
		cfg.MaxRuns = cfg.MinRuns
	}
	return &Runner{cfg: cfg}
}

// Op is one operation to measure: one execution of Run does FLOPs of work
// and moves Bytes of traffic.
type Op struct {
	Name         string
	FLOPs, Bytes float64
	Run          func()
}

// Measure runs f repeatedly under the protocol and returns the Measurement.
// flops and bytes describe one execution of f.
func (r *Runner) Measure(name string, flops, bytes float64, f func()) *Measurement {
	return r.MeasureAll([]Op{{Name: name, FLOPs: flops, Bytes: bytes, Run: f}})[0]
}

// MeasureAll measures ops round-robin under the protocol, so a load burst
// or a frequency change hits every op alike instead of whichever ran then.
// Each op is warmed up and batch-calibrated before the first round; each
// round then takes one sample of every op, and the rounds stop at MaxRuns
// or once every op meets TargetRelCI. Before outlier rejection every op
// thus has the same number of samples, and sample i of each op comes from
// round i.
func (r *Runner) MeasureAll(ops []Op) []*Measurement {
	ms := make([]*Measurement, len(ops))
	batches := make([]int, len(ops))
	for i, op := range ops {
		ms[i] = &Measurement{Name: op.Name, FLOPs: op.FLOPs, Bytes: op.Bytes, Procs: 1}
		for j := 0; j < r.cfg.Warmup; j++ {
			op.Run()
		}
		batches[i] = 1
		if r.cfg.MinSampleTime > 0 {
			batches[i] = r.calibrateBatch(op.Run)
		}
	}
	for round := 1; round <= r.cfg.MaxRuns; round++ {
		for i, op := range ops {
			start := time.Now()
			for j := 0; j < batches[i]; j++ {
				op.Run()
			}
			ms[i].Seconds = append(ms[i].Seconds, time.Since(start).Seconds()/float64(batches[i]))
		}
		if round >= r.cfg.MinRuns && r.cfg.TargetRelCI > 0 && r.converged(ms) {
			break
		}
	}
	for _, m := range ms {
		if r.cfg.RejectOutliers {
			m.Seconds = stats.RejectIQR(m.Seconds, 1.5)
		}
		publishMeasurement(m)
	}
	return ms
}

// converged reports whether every series' 95% CI half-width is within
// TargetRelCI of its mean.
func (r *Runner) converged(ms []*Measurement) bool {
	for _, m := range ms {
		if m.MeanCI(0.95).RelativeHalfWidth() > r.cfg.TargetRelCI {
			return false
		}
	}
	return true
}

// calibrateBatch finds a batch size so one sample lasts ~MinSampleTime.
func (r *Runner) calibrateBatch(f func()) int {
	batch := 1
	for batch < 1<<20 {
		start := time.Now()
		for j := 0; j < batch; j++ {
			f()
		}
		if time.Since(start) >= r.cfg.MinSampleTime {
			return batch
		}
		batch *= 2
	}
	return batch
}
