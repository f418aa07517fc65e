// Observability hook: an Observer attached to a pool receives one
// callback per executed range, labeled by executor and carrying its
// fork/join provenance, so a trace timeline can show which executor ran
// which part of each parallel region and how evenly the work spread.
// The obs package provides the session adapter (obs.NewSchedObserver)
// and flight the black-box tee, following the same producer-interface /
// adapter split as gpu.Recorder — sched cannot import obs without a
// cycle through the kernels.
package sched

import (
	"sync/atomic"
	"time"
)

// Observer receives executed-range events from a pool. Implementations
// must be safe for concurrent use: workers report in parallel.
type Observer interface {
	// TaskRan reports that info.Executor ran one range of a parallel
	// region.
	TaskRan(info TaskInfo)
}

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

// observerBox lets an interface value live in an atomic.Pointer.
type observerBox struct{ o Observer }

type obsCell = atomic.Pointer[observerBox]

// Observe mirrors executed ranges into o. Passing nil detaches. The
// disabled path is one atomic load per task.
func (p *Pool) Observe(o Observer) {
	if o == nil {
		p.obs.Store(nil)
		return
	}
	p.obs.Store(&observerBox{o: o})
}

// Observe attaches o to the default pool (see Pool.Observe).
func Observe(o Observer) { Default().Observe(o) }

// callerExecutor labels ranges run by the submitting goroutine.
const callerExecutor = "caller"

// observeTask reports one executed range to the attached observer.
func observeTask(box *observerBox, w *worker, t task, start time.Time, dur time.Duration) {
	j := t.j
	exec, wid := callerExecutor, -1
	if w != nil {
		exec, wid = w.obsName, w.id
	}
	box.o.TaskRan(TaskInfo{
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
