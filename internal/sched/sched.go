// Package sched is the repo's shared parallel runtime: a persistent
// work-stealing pool that every parallel kernel dispatches through
// instead of hand-rolling goroutine fan-outs.
//
// The model is a fixed set of worker goroutines, one ring-buffer deque
// each. An owner pushes and pops at the tail (LIFO, so the hottest —
// most recently split — range stays in its cache), thieves steal from
// the head (FIFO, so a thief takes the oldest and therefore largest
// unsplit range). ParallelFor seeds one contiguous range per worker
// and workers split lazily: before running a range larger than the
// grain they push its upper half and keep the lower, so splitting cost
// is only paid where stealing actually happens (lazy binary
// splitting). Three scheduling policies are selectable per call for
// the course's scheduling ablation: stealing (the default), static
// (fixed contiguous chunks, the pre-sched decomposition), and guided
// (decreasing chunk sizes, OpenMP-style).
//
// Nested parallelism is safe at any depth and any pool size: a
// submitter never just blocks. After seeding it enters a help loop
// that steals back its own job's tasks — wherever they sit in any
// deque — and runs them itself, so every job can be completed by its
// submitter alone even if all workers are blocked in deeper nested
// waits. Panics in a body are caught on whichever goroutine ran the
// range, the job is cancelled (remaining ranges are skipped), and the
// original panic value is re-raised on the submitting goroutine.
//
// The steady state allocates nothing: jobs are pooled, deques reuse
// their rings, and no channels or goroutines are created per call.
// (The body closure itself is allocated by the caller; reuse it across
// calls where that matters.)
package sched

import (
	"runtime"
	"sync"

	"perfeng/internal/probe"
)

// Policy selects how a parallel region is decomposed into tasks.
type Policy uint8

const (
	// PolicyStealing seeds one range per worker and splits lazily down
	// to the grain as thieves take work. Best for irregular load.
	PolicyStealing Policy = iota
	// PolicyStatic pre-splits into fixed contiguous chunks of the grain
	// (default: one per worker) with no further subdivision — the
	// classic static decomposition the kernels used before sched.
	PolicyStatic
	// PolicyGuided pre-splits into chunks of decreasing size
	// (remaining/2W, floored at the grain), trading scheduling events
	// against tail imbalance, OpenMP-style.
	PolicyGuided
)

// String names the policy for benchmarks and traces.
func (p Policy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyGuided:
		return "guided"
	default:
		return "stealing"
	}
}

// Pool is a work-stealing worker pool. The zero value is not usable;
// call New. Methods may be called from any goroutine, including from
// inside a body running on the pool (nested parallelism).
type Pool struct {
	state stateCell
	_     [56]byte // state is loaded on every dispatch; keep it off the Tasks hook's cache line
	// Tasks receives one TaskInfo per executed range while any sink is
	// attached; unobserved, a range costs one atomic load here.
	Tasks probe.Hook[TaskInfo]
}

// New creates a pool with the given number of workers. workers < 0
// means GOMAXPROCS. A pool with 0 workers runs every region inline on
// the submitting goroutine, which keeps single-threaded builds and
// tests trivially correct.
func New(workers int) *Pool {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.state.Store(newRing(p, workers))
	return p
}

// SetWorkers resizes the pool for scalability studies. The old worker
// set drains its queues and exits; in-flight regions complete on the
// old workers or on their own submitters. Do not resize concurrently
// with regions whose bodies index per-executor state sized by
// Executors — the executor count changes with the worker count.
func (p *Pool) SetWorkers(n int) {
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	old := p.state.Swap(newRing(p, n))
	close(old.quit)
}

// Close stops the workers. The pool remains usable: regions submitted
// after Close run inline.
func (p *Pool) Close() {
	old := p.state.Swap(newRing(p, 0))
	close(old.quit)
}

// Workers reports the current number of pool workers.
func (p *Pool) Workers() int { return len(p.state.Load().workers) }

// Executors reports the number of distinct executor ids a ForWorker
// body may observe: one per worker plus one for the submitting
// goroutine, which helps run its own job while it waits. Size
// per-executor state (privatized histograms, per-worker buffers) by
// this, not by Workers.
func (p *Pool) Executors() int { return len(p.state.Load().workers) + 1 }

// For runs fn over disjoint subranges covering [0, n) using the
// stealing policy. grain is the smallest range worth scheduling
// (<= 0 picks one that amortizes steal overhead); fn may run
// concurrently on multiple goroutines and must be safe for that.
// For returns when every index has been processed. A panic in fn
// cancels the remaining ranges and re-panics on the caller.
func (p *Pool) For(n, grain int, fn func(lo, hi int)) {
	p.dispatch(PolicyStealing, n, grain, fn, nil)
}

// ForPolicy is For with an explicit scheduling policy. For
// PolicyStatic the grain is the fixed chunk size (<= 0: one chunk per
// worker); for PolicyGuided it is the minimum chunk size.
func (p *Pool) ForPolicy(pol Policy, n, grain int, fn func(lo, hi int)) {
	p.dispatch(pol, n, grain, fn, nil)
}

// ForWorker is For for bodies that privatize state per executor: fn
// additionally receives an executor id in [0, Executors()). Ranges
// with the same id never run concurrently, so fn may mutate
// state[id] without synchronization.
func (p *Pool) ForWorker(n, grain int, fn func(worker, lo, hi int)) {
	p.dispatch(PolicyStealing, n, grain, nil, fn)
}

// ForWorkerPolicy is ForWorker with an explicit scheduling policy.
func (p *Pool) ForWorkerPolicy(pol Policy, n, grain int, fn func(worker, lo, hi int)) {
	p.dispatch(pol, n, grain, nil, fn)
}

// defaultPool is the package pool every kernel shares, sized by
// GOMAXPROCS at first use.
var defaultPool = sync.OnceValue(func() *Pool { return New(-1) })

// Default returns the shared package-level pool.
func Default() *Pool { return defaultPool() }

// ParallelFor runs fn over [0, n) on the default pool (see Pool.For).
func ParallelFor(n, grain int, fn func(lo, hi int)) { Default().For(n, grain, fn) }

// ParallelForPolicy is ParallelFor with an explicit policy.
func ParallelForPolicy(pol Policy, n, grain int, fn func(lo, hi int)) {
	Default().ForPolicy(pol, n, grain, fn)
}

// ParallelForWorker runs fn with executor ids on the default pool (see
// Pool.ForWorker).
func ParallelForWorker(n, grain int, fn func(worker, lo, hi int)) {
	Default().ForWorker(n, grain, fn)
}

// ParallelForWorkerPolicy is ParallelForWorker with an explicit policy.
func ParallelForWorkerPolicy(pol Policy, n, grain int, fn func(worker, lo, hi int)) {
	Default().ForWorkerPolicy(pol, n, grain, fn)
}

// SetWorkers resizes the default pool (see Pool.SetWorkers).
func SetWorkers(n int) { Default().SetWorkers(n) }

// Workers reports the default pool's worker count.
func Workers() int { return Default().Workers() }

// Executors reports the default pool's executor-id space (see
// Pool.Executors).
func Executors() int { return Default().Executors() }
