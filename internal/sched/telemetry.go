// Live-telemetry hooks for the scheduler, following the repo-wide
// EnableTelemetry(reg) pattern: one atomic pointer load per event, and
// cached per-worker handles so the per-task path never takes the
// registry lock. Disabled, the handles are the nil metrics of a nil
// registry, which no-op, so the scheduler never branches on "is
// telemetry on".
package sched

import (
	"sync/atomic"
	"time"

	"perfeng/internal/telemetry"
)

type counterRef = *telemetry.Counter

type telHandles struct {
	regions     *telemetry.Counter
	inline      *telemetry.Counter
	tasks       *telemetry.Counter
	steals      *telemetry.Counter
	stealFails  *telemetry.Counter
	taskSeconds *telemetry.Histogram
	workerBusy  *telemetry.CounterFamily
	workerTasks *telemetry.CounterFamily
	callerBusy  *telemetry.Counter // the submitter help-loop lane
}

// tel is never nil: disabled, it holds the handle set of a nil
// registry.
var tel atomic.Pointer[telHandles]

func init() { EnableTelemetry(nil) }

// EnableTelemetry publishes scheduler activity to reg: regions
// dispatched vs run inline, tasks, steals and failed steal sweeps, a
// task-duration histogram, and per-worker busy time — the imbalance
// view: with perfect balance every worker's busy counter grows at the
// same rate. Passing nil stops publication.
func EnableTelemetry(reg *telemetry.Registry) {
	th := &telHandles{
		regions: reg.Counter("perfeng_sched_regions",
			"Parallel regions dispatched to the worker pool."),
		inline: reg.Counter("perfeng_sched_regions_inline",
			"Parallel regions run inline (no workers, or n <= grain)."),
		tasks: reg.Counter("perfeng_sched_tasks",
			"Grain-sized ranges executed."),
		steals: reg.Counter("perfeng_sched_steals",
			"Tasks taken from another worker's deque."),
		stealFails: reg.Counter("perfeng_sched_steal_failures",
			"Steal sweeps that found every deque empty."),
		// 2^-24 s ≈ 60 ns up to 2^0 = 1 s.
		taskSeconds: reg.Histogram("perfeng_sched_task_seconds",
			"Wall-clock duration of one executed range.", -24, 0),
		workerBusy: reg.CounterFamily("perfeng_sched_worker_busy_nanoseconds",
			"Time spent inside parallel bodies, per executor.", "worker"),
		workerTasks: reg.CounterFamily("perfeng_sched_worker_tasks",
			"Ranges executed, per executor.", "worker"),
	}
	th.callerBusy = th.workerBusy.With("caller")
	tel.Store(th)
}

// publishTask records one executed range. Workers cache their labeled
// handles keyed on the telHandles generation; the submitter lane
// shares the pre-resolved "caller" series.
func publishTask(th *telHandles, w *worker, dur time.Duration) {
	th.tasks.Inc()
	th.taskSeconds.Observe(dur.Seconds())
	if w == nil {
		th.callerBusy.Add(uint64(dur))
		return
	}
	if w.telCache != th {
		w.telCache = th
		w.busyC = th.workerBusy.With(w.label)
		w.tasksC = th.workerTasks.With(w.label)
	}
	w.busyC.Add(uint64(dur))
	w.tasksC.Inc()
}
