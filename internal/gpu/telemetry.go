package gpu

import (
	"sync/atomic"

	"perfeng/internal/telemetry"
)

// Live-telemetry hooks for the device executor. Launch bookkeeping is
// host-side and happens once per kernel launch (never per thread), so
// the labeled lookups here are cold-path. Disabled, the handles are the
// nil metrics of a nil registry, which no-op.

type telHandles struct {
	launches   *telemetry.CounterFamily
	blocks     *telemetry.CounterFamily
	launchSecs *telemetry.HistogramFamily
	occupancy  *telemetry.GaugeFamily
}

// tel is never nil: disabled, it holds the handle set of a nil
// registry.
var tel atomic.Pointer[telHandles]

func init() { EnableTelemetry(nil) }

// EnableTelemetry publishes kernel-launch activity to reg, labeled by
// kernel name: launches and blocks executed, wall-clock launch
// duration, and the modeled occupancy of the most recent launch.
// Passing nil stops publication.
func EnableTelemetry(reg *telemetry.Registry) {
	tel.Store(&telHandles{
		launches: reg.CounterFamily("perfeng_gpu_launches",
			"Kernel launches completed.", "kernel"),
		blocks: reg.CounterFamily("perfeng_gpu_blocks",
			"Thread blocks executed.", "kernel"),
		// 2^-20 s ≈ 1 µs up to 2^2 = 4 s.
		launchSecs: reg.HistogramFamily("perfeng_gpu_launch_seconds",
			"Wall-clock kernel launch duration.", -20, 2, "kernel"),
		occupancy: reg.GaugeFamily("perfeng_gpu_occupancy_fraction",
			"Modeled SM occupancy of the most recent launch.", "kernel"),
	})
}

// publishLaunch records one completed launch event: its host-side
// wall-clock duration and the occupancy the device computed for it.
func publishLaunch(th *telHandles, ev Event) {
	th.launches.With(ev.Kernel).Inc()
	th.blocks.With(ev.Kernel).Add(uint64(ev.Grid.Count()))
	th.launchSecs.With(ev.Kernel).Observe(ev.End.Sub(ev.Start).Seconds())
	if ev.Occupancy.Fraction > 0 {
		th.occupancy.With(ev.Kernel).Set(ev.Occupancy.Fraction)
	}
}
