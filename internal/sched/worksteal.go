// The work-stealing machinery behind Pool: the ring (one worker
// generation), per-worker deques, the job descriptor, seeding per
// policy, the worker loop, and the submitter help loop. Everything
// here is steady-state allocation-free; see the package comment for
// the scheduling model.
package sched

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// task is one contiguous index range of a job, small enough to live in
// deque slots by value.
type task struct {
	j      *job
	lo, hi int
	// origin is the deque index the task was last pushed onto — seed
	// placement or the splitting worker. An executor with a different
	// id got the task by stealing; observers use that to reconstruct
	// steal edges from traces.
	origin int
}

// ring is one generation of workers and deques. SetWorkers swaps in a
// fresh ring atomically; the old generation drains and exits while
// jobs already seeded on it finish there (or on their submitters), so
// resizing never blocks on quiescence.
type ring struct {
	workers []*worker
	deques  []*deque
	// wake has one buffered slot per worker: producers drop a token
	// after pushing work, parked workers consume one. A full buffer
	// means every worker already has a pending wakeup, so dropping the
	// send is safe.
	wake chan struct{}
	quit chan struct{}
	// idle counts parked workers so producers can skip channel sends
	// on the (common) all-busy path.
	idle atomic.Int32
	_    [60]byte // idle and rr are hammered by different goroutines; keep them on separate cache lines
	// rr round-robins seed placement across deques so repeated small
	// regions do not pile onto worker 0.
	rr atomic.Uint64
}

type stateCell = atomic.Pointer[ring]

func newRing(p *Pool, workers int) *ring {
	r := &ring{
		workers: make([]*worker, workers),
		deques:  make([]*deque, workers),
		wake:    make(chan struct{}, max(workers, 1)),
		quit:    make(chan struct{}),
	}
	for i := range r.deques {
		r.deques[i] = &deque{buf: make([]task, dequeInitialCap)}
	}
	for i := range r.workers {
		w := &worker{
			id:      i,
			label:   strconv.Itoa(i),
			obsName: "worker " + strconv.Itoa(i),
			dq:      r.deques[i],
			rng:     uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		}
		r.workers[i] = w
		go workerLoop(p, r, w)
	}
	return r
}

// signal wakes up to n parked workers without ever blocking.
func (r *ring) signal(n int) {
	for i := 0; i < n; i++ {
		select {
		case r.wake <- struct{}{}:
		default:
			return
		}
	}
}

// worker is one pool goroutine. The cache fields are written only by
// the owning goroutine.
type worker struct {
	id    int
	label string // pre-interned id for telemetry labels (Itoa allocates)
	dq    *deque
	rng   uint64 // xorshift state for victim selection

	obsName string // pre-interned "worker N" for TaskInfo.Executor

	// Cached labeled-telemetry handles, invalidated when the telemetry
	// generation changes, so the per-task hot path never takes the
	// registry lock.
	telCache *telHandles
	busyC    counterRef
	tasksC   counterRef
}

// job is one parallel region in flight. Jobs are pooled; a job is
// returned to the pool only after the submitter's Wait returns, and
// the final pending decrement touches nothing after wg.Done, so reuse
// is race-free.
type job struct {
	fn    func(lo, hi int)
	wfn   func(worker, lo, hi int)
	grain int
	split bool // lazy binary splitting enabled (stealing policy)
	pol   Policy
	ring  *ring
	lane  int // executor id the submitter uses in its help loop

	// region and forked identify the submitting parallel region for
	// observers (fork/join provenance); both stay zero when no
	// observer is attached, so the common path pays neither the
	// counter bump nor the clock read.
	region uint64
	forked time.Time

	pending atomic.Int64
	_       [56]byte // every task completion hits pending; keep it off the cold panic fields' cache line

	panicked atomic.Bool
	_        [63]byte // leaf bodies poll panicked; the mutex below is taken once per job at most
	panicMu  sync.Mutex
	panicV   any

	wg sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

// regionIDs hands out process-wide parallel-region ids for provenance.
// Never zero: zero means "no observer was attached at submit time".
var regionIDs atomic.Uint64

// setPanic records the first panic of the job and cancels the rest of
// it; later panics (possible when ranges run concurrently) are
// dropped in favor of the first.
func (j *job) setPanic(v any) {
	j.panicMu.Lock()
	if !j.panicked.Load() {
		j.panicV = v
		j.panicked.Store(true)
	}
	j.panicMu.Unlock()
}

// dispatch seeds, helps, and waits for one parallel region. Exactly
// one of fn/wfn is non-nil.
func (p *Pool) dispatch(pol Policy, n, grain int, fn func(int, int), wfn func(int, int, int)) {
	if n <= 0 {
		return
	}
	r := p.state.Load()
	nw := len(r.workers)
	if grain <= 0 {
		grain = autoGrain(pol, n, nw)
	}
	if nw == 0 || n <= grain {
		// Inline: nothing to parallelize, or no workers to do it.
		// Panics propagate naturally. The ForWorker lane is the
		// submitter lane so Executors()-sized state stays in bounds.
		tel.Load().inline.Inc()
		if fn != nil {
			fn(0, n)
		} else {
			wfn(nw, 0, n)
		}
		return
	}

	j := jobPool.Get().(*job)
	j.fn, j.wfn = fn, wfn
	j.grain = grain
	j.split = pol == PolicyStealing
	j.pol = pol
	j.ring = r
	j.lane = nw
	j.region, j.forked = 0, time.Time{}
	if p.Tasks.Active() {
		j.region = regionIDs.Add(1)
		j.forked = time.Now()
	}
	j.wg.Add(1)

	p.seed(r, j, pol, n, grain, nw)
	tel.Load().regions.Inc()

	// Help loop: run our own job's queued tasks instead of blocking.
	// This is what makes nesting deadlock-free — a submitter can
	// always drain its job single-handedly, wherever its tasks sit.
	for j.pending.Load() > 0 {
		t, ok := r.stealJob(j)
		if !ok {
			break
		}
		p.runTask(nil, t)
	}
	j.wg.Wait()

	panicked, pv := j.panicked.Load(), j.panicV
	j.fn, j.wfn, j.ring, j.panicV = nil, nil, nil, nil
	j.panicked.Store(false)
	jobPool.Put(j)
	if panicked {
		panic(pv)
	}
}

// seed pre-splits [0, n) per the policy, publishes the chunks across
// the deques round-robin, and wakes workers. pending is set before the
// first push so an early completion cannot release the job
// prematurely.
func (p *Pool) seed(r *ring, j *job, pol Policy, n, grain, nw int) {
	var count int
	switch pol {
	case PolicyStatic:
		count = ceilDiv(n, grain)
	case PolicyGuided:
		for rem := n; rem > 0; count++ {
			rem -= guidedChunk(rem, grain, nw)
		}
	default: // stealing: one seed per worker, workers split lazily
		count = min(nw, ceilDiv(n, grain))
	}
	j.pending.Store(int64(count))

	off := int(r.rr.Add(1))
	push := func(i, lo, hi int) {
		d := (off + i) % nw
		r.deques[d].push(task{j: j, lo: lo, hi: hi, origin: d})
	}
	switch pol {
	case PolicyStatic:
		for i := 0; i < count; i++ {
			push(i, i*grain, min(n, (i+1)*grain))
		}
	case PolicyGuided:
		for i, lo := 0, 0; lo < n; i++ {
			c := guidedChunk(n-lo, grain, nw)
			push(i, lo, lo+c)
			lo += c
		}
	default:
		for i := 0; i < count; i++ {
			push(i, i*n/count, (i+1)*n/count)
		}
	}
	r.signal(min(count, nw))
}

// guidedChunk is the OpenMP guided schedule: half the remaining work
// divided evenly, floored at the grain.
func guidedChunk(rem, grain, nw int) int {
	c := rem / (2 * nw)
	if c < grain {
		c = grain
	}
	return min(c, rem)
}

// autoGrain picks a grain when the caller does not care. Stealing aims
// for ~8 splits per worker: enough slack to rebalance, few enough that
// steal traffic stays negligible.
func autoGrain(pol Policy, n, nw int) int {
	w := max(nw, 1)
	switch pol {
	case PolicyStatic:
		return ceilDiv(n, w)
	case PolicyGuided:
		return 1
	default:
		return max(1, n/(8*w))
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// runTask splits (stealing policy), runs, accounts, and — if this was
// the job's last task — releases the submitter. w is nil when the
// submitter itself runs the task from its help loop.
func (p *Pool) runTask(w *worker, t task) {
	j := t.j
	if j.split && !j.panicked.Load() {
		r := j.ring
		for t.hi-t.lo > j.grain {
			mid := int(uint(t.lo+t.hi) >> 1)
			j.pending.Add(1)
			nt := task{j: j, lo: mid, hi: t.hi}
			if w != nil {
				nt.origin = w.id
				w.dq.push(nt)
			} else {
				d := int(r.rr.Add(1)) % len(r.deques)
				nt.origin = d
				r.deques[d].push(nt)
			}
			if r.idle.Load() > 0 {
				r.signal(1)
			}
			t.hi = mid
		}
	}
	start := time.Now()
	leaf(w, t)
	dur := time.Since(start)
	publishTask(tel.Load(), w, dur)
	if p.Tasks.Active() {
		p.emitTask(w, t, start, dur)
	}
	if j.pending.Add(-1) == 0 {
		j.wg.Done() // j may be reused immediately; touch nothing after
	}
}

// leaf runs one grain-sized range, converting a body panic into job
// cancellation. Cancelled jobs skip the body but still pass through
// the caller's accounting, so pending stays exact.
func leaf(w *worker, t task) {
	j := t.j
	if j.panicked.Load() {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			j.setPanic(r)
		}
	}()
	switch {
	case j.fn != nil:
		j.fn(t.lo, t.hi)
	case w != nil:
		j.wfn(w.id, t.lo, t.hi)
	default:
		j.wfn(j.lane, t.lo, t.hi)
	}
}

// workerLoop runs tasks until the ring is retired, then drains its
// remaining queues so no queued task is stranded on the old
// generation.
func workerLoop(p *Pool, r *ring, w *worker) {
	for {
		if t, ok := w.next(r); ok {
			p.runTask(w, t)
			continue
		}
		// Advertise idleness, then re-check: a producer that saw
		// idle == 0 skipped its wakeup, so the task it pushed in the
		// window must be picked up here, not slept through.
		r.idle.Add(1)
		if t, ok := w.next(r); ok {
			r.idle.Add(-1)
			p.runTask(w, t)
			continue
		}
		select {
		case <-r.wake:
			r.idle.Add(-1)
		case <-r.quit:
			r.idle.Add(-1)
			for {
				t, ok := w.next(r)
				if !ok {
					return
				}
				p.runTask(w, t)
			}
		}
	}
}

// next finds the worker's next task: own deque first (LIFO), then a
// steal sweep.
func (w *worker) next(r *ring) (task, bool) {
	if t, ok := w.dq.popTail(); ok {
		return t, true
	}
	return w.stealAny(r)
}

// stealAny probes a couple of random victims to spread contention,
// then sweeps every deque so a present task is always found.
func (w *worker) stealAny(r *ring) (task, bool) {
	nd := len(r.deques)
	for i := 0; i < 2; i++ {
		v := int(w.nextRand() % uint64(nd))
		if v == w.id {
			continue
		}
		if t, ok := r.deques[v].stealHead(); ok {
			tel.Load().steals.Inc()
			return t, true
		}
	}
	for v := 0; v < nd; v++ {
		if v == w.id {
			continue
		}
		if t, ok := r.deques[v].stealHead(); ok {
			tel.Load().steals.Inc()
			return t, true
		}
	}
	tel.Load().stealFails.Inc()
	return task{}, false
}

// nextRand is xorshift64*; cheap, worker-local, and good enough for
// victim selection.
func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	w.rng = x
	return x * 0x2545f4914f6cdd1d
}

// stealJob scans every deque for a task belonging to j — any slot, not
// just the head, so a submitter can reach its own seeds even when they
// are buried behind another job's backlog.
func (r *ring) stealJob(j *job) (task, bool) {
	for _, d := range r.deques {
		if t, ok := d.stealFor(j); ok {
			return t, true
		}
	}
	return task{}, false
}

// dequeInitialCap is the per-worker ring capacity; regions deeper than
// this grow the ring once and keep it.
const dequeInitialCap = 64

// deque is a mutex-protected growable ring buffer. A lock-free
// Chase-Lev deque saves ~20ns per operation, but tasks here are
// grain-sized (microseconds), and the mutex buys an exact memory
// model, race-detector-clean stealing, and the mid-ring scan stealFor
// needs for nested-parallelism safety.
type deque struct {
	mu   sync.Mutex
	buf  []task // len is a power of two; index by & (len-1)
	head int    // steal end: monotonically increasing, oldest task
	tail int    // owner end: monotonically increasing, next free slot
}

func (d *deque) push(t task) {
	d.mu.Lock()
	if d.tail-d.head == len(d.buf) {
		d.grow()
	}
	d.buf[d.tail&(len(d.buf)-1)] = t
	d.tail++
	d.mu.Unlock()
}

func (d *deque) grow() {
	nb := make([]task, max(dequeInitialCap, len(d.buf)*2))
	n := d.tail - d.head
	for i := range nb[:n] {
		nb[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf, d.head, d.tail = nb, 0, n
}

func (d *deque) popTail() (task, bool) {
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return task{}, false
	}
	d.tail--
	i := d.tail & (len(d.buf) - 1)
	t := d.buf[i]
	d.buf[i] = task{} // drop the job reference for GC
	d.mu.Unlock()
	return t, true
}

func (d *deque) stealHead() (task, bool) {
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return task{}, false
	}
	i := d.head & (len(d.buf) - 1)
	t := d.buf[i]
	d.buf[i] = task{}
	d.head++
	d.mu.Unlock()
	return t, true
}

// stealFor removes and returns the oldest task of job j, scanning the
// whole ring. The gap is closed by shifting the head side — the
// matched slot is nearest that end by construction of the scan.
func (d *deque) stealFor(j *job) (task, bool) {
	d.mu.Lock()
	buf, m := d.buf, len(d.buf)-1
	for i := d.head; i < d.tail; i++ {
		if buf[i&m].j != j {
			continue
		}
		t := buf[i&m]
		for k := i; k > d.head; k-- {
			buf[k&m] = buf[(k-1)&m]
		}
		buf[d.head&m] = task{}
		d.head++
		d.mu.Unlock()
		return t, true
	}
	d.mu.Unlock()
	return task{}, false
}
