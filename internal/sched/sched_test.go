package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfeng/internal/telemetry"
)

// testPools caches one pool per worker count so the randomized
// property test does not spawn thousands of goroutine sets.
type testPools struct {
	t     *testing.T
	pools map[int]*Pool
}

func newTestPools(t *testing.T) *testPools {
	tp := &testPools{t: t, pools: make(map[int]*Pool)}
	t.Cleanup(func() {
		for _, p := range tp.pools {
			p.Close()
		}
	})
	return tp
}

func (tp *testPools) get(workers int) *Pool {
	if p, ok := tp.pools[workers]; ok {
		return p
	}
	p := New(workers)
	tp.pools[workers] = p
	return p
}

// mustFinish fails the test with full goroutine stacks if fn does not
// return within d — a deadlock in the scheduler would otherwise just
// hang the whole test binary.
func mustFinish(t *testing.T, d time.Duration, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("%s did not finish within %v — deadlock?\n%s", name, d, buf[:n])
	}
}

// TestParallelForVisitsExactlyOnce is the core property: for random
// (workers, n, grain, policy), every index in [0, n) is visited
// exactly once, including n = 0, n < workers, and grain > n.
func TestParallelForVisitsExactlyOnce(t *testing.T) {
	tp := newTestPools(t)
	rng := rand.New(rand.NewSource(1))
	workerChoices := []int{0, 1, 2, 3, 4, 8}
	policies := []Policy{PolicyStealing, PolicyStatic, PolicyGuided}
	mustFinish(t, 2*time.Minute, "property sweep", func() {
		for trial := 0; trial < 300; trial++ {
			workers := workerChoices[rng.Intn(len(workerChoices))]
			pol := policies[rng.Intn(len(policies))]
			var n int
			switch rng.Intn(4) {
			case 0:
				n = rng.Intn(3) // 0, 1, 2: degenerate sizes
			case 1:
				n = rng.Intn(workers + 2) // around n < workers
			default:
				n = rng.Intn(3000)
			}
			grain := rng.Intn(2*n+4) - 1 // includes <= 0 (auto) and > n
			p := tp.get(workers)
			counts := make([]int32, n)
			p.ForPolicy(pol, n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("trial %d: bad range [%d, %d) for n=%d", trial, lo, hi, n)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("trial %d (workers=%d pol=%v n=%d grain=%d): index %d visited %d times",
						trial, workers, pol, n, grain, i, c)
				}
			}
		}
	})
}

func TestForNonPositiveN(t *testing.T) {
	p := New(2)
	defer p.Close()
	for _, n := range []int{0, -1, -100} {
		called := false
		p.For(n, 0, func(lo, hi int) { called = true })
		if called {
			t.Errorf("n=%d: body called", n)
		}
	}
}

// TestPanicPropagation checks that a panic in a body reaches the
// submitter with its original value, does not deadlock, and leaves the
// pool usable — including when the panic happens in a nested region.
func TestPanicPropagation(t *testing.T) {
	p := New(2)
	defer p.Close()
	for _, n := range []int{1, 7, 1000} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("n=%d: recovered %v, want \"boom\"", n, r)
				}
			}()
			mid := n / 2
			p.For(n, 1, func(lo, hi int) {
				if lo <= mid && mid < hi {
					panic("boom")
				}
			})
			t.Errorf("n=%d: For returned without panicking", n)
		}()
	}

	// Nested: the inner region's panic unwinds through the outer one.
	func() {
		defer func() {
			if r := recover(); r != "inner boom" {
				t.Errorf("nested: recovered %v, want \"inner boom\"", r)
			}
		}()
		p.For(8, 1, func(lo, hi int) {
			p.For(8, 1, func(ilo, ihi int) {
				if ilo == 0 {
					panic("inner boom")
				}
			})
		})
		t.Error("nested: For returned without panicking")
	}()

	// Pool still works after cancellations.
	var total atomic.Int64
	p.For(100, 1, func(lo, hi int) { total.Add(int64(hi - lo)) })
	if total.Load() != 100 {
		t.Errorf("post-panic For covered %d of 100 indices", total.Load())
	}
}

// TestNestedParallelism drives regions three levels deep on small
// pools: the submitter help loop must keep this deadlock-free even
// with one worker.
func TestNestedParallelism(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := New(workers)
			defer p.Close()
			var total atomic.Int64
			mustFinish(t, time.Minute, "nested regions", func() {
				p.For(8, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						p.For(8, 1, func(ilo, ihi int) {
							for k := ilo; k < ihi; k++ {
								p.For(4, 1, func(dlo, dhi int) {
									total.Add(int64(dhi - dlo))
								})
							}
						})
					}
				})
			})
			if want := int64(8 * 8 * 4); total.Load() != want {
				t.Errorf("nested total = %d, want %d", total.Load(), want)
			}
		})
	}
}

// TestConcurrentSubmitters hammers one pool from many goroutines, each
// submitting regions that themselves nest, as a race-detector stress.
func TestConcurrentSubmitters(t *testing.T) {
	p := New(2)
	defer p.Close()
	const (
		goroutines = 8
		iters      = 30
		n          = 256
	)
	var total atomic.Int64
	mustFinish(t, 2*time.Minute, "concurrent submitters", func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					p.For(n, 8, func(lo, hi int) {
						p.For(hi-lo, 4, func(ilo, ihi int) {
							total.Add(int64(ihi - ilo))
						})
					})
				}
			}()
		}
		wg.Wait()
	})
	if want := int64(goroutines * iters * n); total.Load() != want {
		t.Errorf("total = %d, want %d", total.Load(), want)
	}
}

// TestForWorker checks the executor-id contract: ids stay within
// [0, Executors()), and ranges with the same id never run
// concurrently — the plain (non-atomic) per-slot counters double as a
// race-detector probe of that guarantee.
func TestForWorker(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := New(workers)
			defer p.Close()
			ex := p.Executors()
			if ex != workers+1 {
				t.Fatalf("Executors() = %d, want %d", ex, workers+1)
			}
			const n = 10000
			inUse := make([]atomic.Bool, ex)
			counts := make([]int64, ex)
			p.ForWorker(n, 16, func(w, lo, hi int) {
				if w < 0 || w >= ex {
					t.Errorf("executor id %d out of [0, %d)", w, ex)
					return
				}
				if !inUse[w].CompareAndSwap(false, true) {
					t.Errorf("executor id %d ran two ranges concurrently", w)
					return
				}
				counts[w] += int64(hi - lo)
				inUse[w].Store(false)
			})
			var sum int64
			for _, c := range counts {
				sum += c
			}
			if sum != n {
				t.Errorf("per-executor counts sum to %d, want %d", sum, n)
			}
		})
	}
}

func TestReduceSum(t *testing.T) {
	p := New(3)
	defer p.Close()
	const n = 5000
	got := Reduce(p, PolicyStealing, n, 0, int64(0),
		func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s
		},
		func(a, b int64) int64 { return a + b })
	if want := int64(n) * (n - 1) / 2; got != want {
		t.Errorf("Reduce sum = %d, want %d", got, want)
	}
}

// TestReduceDeterministic: an order-insensitive combine (min score,
// ties to the lower index) must give the same answer on every run
// regardless of scheduling.
func TestReduceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scores := make([]float64, 4096)
	for i := range scores {
		scores[i] = float64(rng.Intn(50)) // plenty of duplicate minima
	}
	type best struct {
		idx   int
		score float64
	}
	run := func() best {
		return ParallelReduce(len(scores), 32, best{idx: -1},
			func(lo, hi int) best {
				b := best{idx: -1}
				for i := lo; i < hi; i++ {
					if b.idx == -1 || scores[i] < b.score || (scores[i] == b.score && i < b.idx) {
						b = best{idx: i, score: scores[i]}
					}
				}
				return b
			},
			func(a, b best) best {
				switch {
				case a.idx == -1:
					return b
				case b.idx == -1:
					return a
				case b.score < a.score, b.score == a.score && b.idx < a.idx:
					return b
				default:
					return a
				}
			})
	}
	first := run()
	if first.idx == -1 {
		t.Fatal("no minimum found")
	}
	for i := 0; i < 20; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: got %+v, want %+v", i, got, first)
		}
	}
}

func TestSetWorkers(t *testing.T) {
	p := New(1)
	defer p.Close()
	check := func(wantWorkers int) {
		t.Helper()
		if got := p.Workers(); got != wantWorkers {
			t.Fatalf("Workers() = %d, want %d", got, wantWorkers)
		}
		var total atomic.Int64
		p.For(1000, 8, func(lo, hi int) { total.Add(int64(hi - lo)) })
		if total.Load() != 1000 {
			t.Fatalf("with %d workers: covered %d of 1000", wantWorkers, total.Load())
		}
	}
	check(1)
	p.SetWorkers(4)
	check(4)
	p.SetWorkers(0) // everything inline
	check(0)
	p.SetWorkers(2)
	check(2)
}

func TestTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)
	p := New(2)
	defer p.Close()
	var total atomic.Int64
	p.For(4096, 16, func(lo, hi int) { total.Add(int64(hi - lo)) })
	p.For(4, 100, func(lo, hi int) { total.Add(int64(hi - lo)) }) // inline: n <= grain

	vals := make(map[string]float64)
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Series {
			vals[fam.Name] += s.Value
		}
	}
	if vals["perfeng_sched_regions"] < 1 {
		t.Errorf("regions = %v, want >= 1", vals["perfeng_sched_regions"])
	}
	if vals["perfeng_sched_regions_inline"] < 1 {
		t.Errorf("inline regions = %v, want >= 1", vals["perfeng_sched_regions_inline"])
	}
	if vals["perfeng_sched_tasks"] < 1 {
		t.Errorf("tasks = %v, want >= 1", vals["perfeng_sched_tasks"])
	}
	if vals["perfeng_sched_worker_busy_nanoseconds"] <= 0 {
		t.Errorf("worker busy = %v, want > 0", vals["perfeng_sched_worker_busy_nanoseconds"])
	}
}

// recordingObserver is a concurrency-safe task sink recording every
// TaskInfo; the session sink itself is covered in the obs package's
// tests.
type recordingObserver struct {
	mu    sync.Mutex
	infos []TaskInfo
}

func (o *recordingObserver) record(info TaskInfo) {
	o.mu.Lock()
	o.infos = append(o.infos, info)
	o.mu.Unlock()
}

func TestObserve(t *testing.T) {
	p := New(2)
	defer p.Close()
	rec := &recordingObserver{}
	defer p.Tasks.Attach(rec.record)()
	var total atomic.Int64
	p.For(4096, 16, func(lo, hi int) { total.Add(int64(hi - lo)) })

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.infos) == 0 {
		t.Fatal("no task events recorded")
	}
	stealing := false
	for _, info := range rec.infos {
		stealing = stealing || info.Policy == PolicyStealing
		if info.Executor != "caller" && !strings.HasPrefix(info.Executor, "worker ") {
			t.Errorf("unexpected executor label %q", info.Executor)
		}
	}
	if !stealing {
		t.Error("no stealing-policy tasks observed")
	}
}

// TestObserveProvenance checks the fork/join provenance contract: every
// range carries the submitting region's id and fork time, distinct
// regions get distinct ids, the executed ranges of one region tile
// [0, n) exactly, and Stolen is consistent with Origin vs Worker.
func TestObserveProvenance(t *testing.T) {
	p := New(2)
	defer p.Close()
	rec := &recordingObserver{}
	defer p.Tasks.Attach(rec.record)()

	const n = 4096
	p.ForPolicy(PolicyStealing, n, 16, func(lo, hi int) {})
	p.ForPolicy(PolicyStatic, n, 64, func(lo, hi int) {})

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.infos) == 0 {
		t.Fatal("no task events recorded")
	}
	regions := make(map[uint64][]TaskInfo)
	for _, info := range rec.infos {
		if info.Region == 0 {
			t.Fatalf("zero region id: %+v", info)
		}
		if info.Forked.IsZero() || info.Start.Before(info.Forked) {
			t.Errorf("task start %v precedes region fork %v", info.Start, info.Forked)
		}
		if info.Worker >= 0 && info.Executor != "worker "+strconv.Itoa(info.Worker) {
			t.Errorf("executor %q does not match worker %d", info.Executor, info.Worker)
		}
		if info.Worker < 0 && info.Executor != "caller" {
			t.Errorf("executor %q for help-loop range", info.Executor)
		}
		if info.Stolen && (info.Worker < 0 || info.Origin == info.Worker) {
			t.Errorf("stolen range with origin %d on worker %d", info.Origin, info.Worker)
		}
		if !info.Stolen && info.Worker >= 0 && info.Origin != info.Worker {
			t.Errorf("unstolen range with origin %d on worker %d", info.Origin, info.Worker)
		}
		regions[info.Region] = append(regions[info.Region], info)
	}
	if len(regions) != 2 {
		t.Fatalf("got %d distinct regions, want 2", len(regions))
	}
	for id, infos := range regions {
		covered := make([]bool, n)
		for _, info := range infos {
			for i := info.Lo; i < info.Hi; i++ {
				if covered[i] {
					t.Fatalf("region %d: index %d executed twice", id, i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("region %d: index %d never executed", id, i)
			}
		}
		for _, info := range infos[1:] {
			if info.Forked != infos[0].Forked {
				t.Errorf("region %d: fork times differ within one region", id)
			}
		}
	}
}

// TestSteadyStateAllocs: after warmup, dispatching through the pool
// must not allocate — jobs are pooled and deques reuse their rings.
// The body closure is hoisted, as the package comment prescribes.
func TestSteadyStateAllocs(t *testing.T) {
	p := New(1)
	defer p.Close()
	var sink atomic.Int64
	body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	for i := 0; i < 100; i++ {
		p.For(4096, 64, body) // warm the job pool and deque rings
	}
	avg := testing.AllocsPerRun(200, func() { p.For(4096, 64, body) })
	if avg > 0.5 {
		t.Errorf("steady-state For allocates %.2f times per call, want 0", avg)
	}
}
