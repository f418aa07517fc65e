package metrics

import (
	"sync/atomic"

	"perfeng/internal/telemetry"
)

// Live-telemetry hooks for the measurement runner. The handles are
// grouped behind one atomic pointer; enabling swaps in a populated
// handle set, disabling the nil metrics of a nil registry, which no-op.

type telHandles struct {
	measurements *telemetry.Counter
	samples      *telemetry.Counter
	sampleSecs   *telemetry.Histogram
}

// tel is never nil: disabled, it holds the handle set of a nil
// registry.
var tel atomic.Pointer[telHandles]

func init() { EnableTelemetry(nil) }

// EnableTelemetry publishes runner activity to reg: measurements and
// samples completed, and the per-sample duration distribution. Passing
// nil stops publication.
func EnableTelemetry(reg *telemetry.Registry) {
	tel.Store(&telHandles{
		measurements: reg.Counter("perfeng_runner_measurements",
			"Measurements completed by metrics.Runner."),
		samples: reg.Counter("perfeng_runner_samples",
			"Timed samples recorded across all measurements."),
		// 2^-20 s ≈ 1 µs up to 2^2 = 4 s spans the runner's sample range.
		sampleSecs: reg.Histogram("perfeng_runner_sample_seconds",
			"Duration of individual timed samples.", -20, 2),
	})
}

// publishMeasurement records one finished measurement; called at the
// end of Runner.Measure, outside any timed region.
func publishMeasurement(m *Measurement) {
	th := tel.Load()
	th.measurements.Inc()
	th.samples.Add(uint64(len(m.Seconds)))
	for _, s := range m.Seconds {
		th.sampleSecs.Observe(s)
	}
}
