package queuing

import (
	"sync/atomic"

	"perfeng/internal/telemetry"
)

// Live-telemetry hooks for the discrete-event simulator. Simulate runs
// for thousands of events per call, so publication happens once at the
// end of a run. Disabled, the handles are the nil metrics of a nil
// registry, which no-op.

type telHandles struct {
	runs      *telemetry.Counter
	customers *telemetry.Counter
	meanWait  *telemetry.Gauge
	util      *telemetry.Gauge
}

// tel is never nil: disabled, it holds the handle set of a nil
// registry.
var tel atomic.Pointer[telHandles]

func init() { EnableTelemetry(nil) }

// EnableTelemetry publishes simulation activity to reg: runs and
// customers completed, plus the mean waiting time and server
// utilization of the most recent run (in simulated time units).
// Passing nil stops publication.
func EnableTelemetry(reg *telemetry.Registry) {
	tel.Store(&telHandles{
		runs: reg.Counter("perfeng_queuing_runs",
			"Discrete-event simulation runs completed."),
		customers: reg.Counter("perfeng_queuing_customers",
			"Customers served across all runs (excluding warm-up)."),
		meanWait: reg.Gauge("perfeng_queuing_mean_wait",
			"Mean waiting time of the most recent run, simulated time units."),
		util: reg.Gauge("perfeng_queuing_utilization",
			"Server utilization of the most recent run."),
	})
}

// publishRun records one completed simulation.
func publishRun(res SimResult) {
	th := tel.Load()
	th.runs.Inc()
	th.customers.Add(uint64(res.Customers))
	th.meanWait.Set(res.MeanWq)
	th.util.Set(res.Util)
}
