// Observability hook: every pool exposes its executed ranges on
// Pool.Tasks, one TaskInfo per range, labeled by executor and carrying
// its fork/join provenance, so a trace timeline can show which executor
// ran which part of each parallel region and how evenly the work
// spread. obs (obs.SchedSink) and flight (flight.SchedSink) provide the
// sinks; sched cannot import either without a cycle through the
// kernels.
package sched

import "time"

// TaskInfo is one executed range with enough provenance to reconstruct
// fork/join and steal edges from a trace. Every range belongs to
// exactly one parallel region (one ParallelFor/Reduce call), identified
// process-wide by Region; Forked is the instant the submitter seeded
// that region, so Start-Forked bounds the range's queue/steal latency.
type TaskInfo struct {
	// Executor is "worker 0" … "worker N-1", or "caller" for ranges the
	// submitter ran in its help loop.
	Executor string
	// Worker is the executing worker id, or -1 for the submitter's
	// help loop.
	Worker int
	// Origin is the deque the range was last pushed onto — its seed
	// placement, or the splitting worker under lazy splitting.
	Origin int
	// Stolen reports that the executing worker took the range from
	// another worker's deque (always false for the help loop: a
	// submitter draining its own job is a join, not a steal).
	Stolen bool
	// Region is the process-wide id of the submitting parallel region.
	Region uint64
	// Forked is when the submitter seeded the region.
	Forked time.Time
	Policy Policy
	Start  time.Time
	Dur    time.Duration
	Lo, Hi int
}

// callerExecutor labels ranges run by the submitting goroutine.
const callerExecutor = "caller"

// emitTask reports one executed range to p's task sinks.
func (p *Pool) emitTask(w *worker, t task, start time.Time, dur time.Duration) {
	j := t.j
	exec, wid := callerExecutor, -1
	if w != nil {
		exec, wid = w.obsName, w.id
	}
	p.Tasks.Emit(TaskInfo{
		Executor: exec,
		Worker:   wid,
		Origin:   t.origin,
		Stolen:   w != nil && t.origin != w.id,
		Region:   j.region,
		Forked:   j.forked,
		Policy:   j.pol,
		Start:    start,
		Dur:      dur,
		Lo:       t.lo,
		Hi:       t.hi,
	})
}
