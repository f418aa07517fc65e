package serviced

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfeng/internal/queuing"
	"perfeng/internal/stats"
)

func TestSizeAdmissionBasics(t *testing.T) {
	s, err := SizeAdmission(4, 10*time.Millisecond, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Attainable {
		t.Fatalf("generous target should be attainable: %+v", s)
	}
	if s.Lambda <= 0 || s.Rho <= 0 || s.Rho >= 1 {
		t.Fatalf("degenerate sizing: %+v", s)
	}
	if s.ModeledP99 > s.TargetP99 {
		t.Fatalf("modeled p99 %v exceeds the target %v it was sized for", s.ModeledP99, s.TargetP99)
	}
	if s.QueueDepth < 1 || s.QueueDepth > maxQueueDepth {
		t.Fatalf("queue depth %d out of range", s.QueueDepth)
	}
	// A looser target must never admit less or queue shallower.
	loose, err := SizeAdmission(4, 10*time.Millisecond, 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Lambda < s.Lambda || loose.QueueDepth < s.QueueDepth {
		t.Fatalf("loosening the target shrank the sizing: tight=%+v loose=%+v", s, loose)
	}
}

func TestSizeAdmissionUnattainable(t *testing.T) {
	// Service p99 alone (ln 100 ≈ 4.6 mean service times) exceeds the
	// target: the sizing must say so and still produce usable limits.
	s, err := SizeAdmission(2, time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.Attainable {
		t.Fatalf("target below the service tail must be unattainable: %+v", s)
	}
	if s.Lambda <= 0 || s.QueueDepth < 1 {
		t.Fatalf("fallback sizing unusable: %+v", s)
	}
	if s.ModeledP99 <= s.TargetP99 {
		t.Fatalf("unattainable sizing should expose the violation: modeled %v <= target %v",
			s.ModeledP99, s.TargetP99)
	}
}

func TestSizeAdmissionRejectsBadInputs(t *testing.T) {
	if _, err := SizeAdmission(0, time.Millisecond, time.Second); err == nil {
		t.Fatal("0 servers must error")
	}
	if _, err := SizeAdmission(2, 0, time.Second); err == nil {
		t.Fatal("0 service time must error")
	}
	if _, err := SizeAdmission(2, time.Millisecond, 0); err == nil {
		t.Fatal("0 target must error")
	}
}

// TestAdmissionConcurrentTenants is the contention hammer: many
// goroutines across several tenants slam Admit/Done on a deliberately
// tiny queue under the race detector. Invariants: every admitted job
// is released exactly once, the in-flight high-water mark never
// exceeds servers + queue depth (the bound the executor channel
// capacity relies on), and every rejection carries a usable retry
// horizon. The seed (1 ms) sits far outside the ±25% band of the
// services' 5.5 ms mean, so the first full window re-sizes under
// contention. Live re-sizing can change the queue depth, so the depth
// in that bound is the largest limit any admitted decision reported.
func TestAdmissionConcurrentTenants(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{
		Servers:            2,
		TargetP99:          50 * time.Millisecond,
		InitialMeanService: time.Millisecond,
		FairShare:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	const attempts = 400
	var admitted, badRetry int64
	limits := make([]int, goroutines) // per goroutine: largest admitted Limit
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%5)
			now := time.Now()
			for i := 0; i < attempts; i++ {
				// Advance a synthetic clock so buckets refill deterministically
				// regardless of scheduler jitter.
				now = now.Add(500 * time.Microsecond)
				d := a.Admit(tenant, now)
				if !d.OK {
					if d.RetryAfter <= 0 {
						atomic.AddInt64(&badRetry, 1)
					}
					continue
				}
				atomic.AddInt64(&admitted, 1)
				if d.QueueLen > d.Limit {
					t.Errorf("admitted with queue %d over limit %d", d.QueueLen, d.Limit)
				}
				limits[g] = max(limits[g], d.Limit)
				a.Done(time.Duration(1+i%10) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	bound := 2 + slices.Max(limits)

	st := a.Stats()
	if st.Inflight != 0 {
		t.Fatalf("slots leaked: %d still in flight after all Done calls", st.Inflight)
	}
	if st.Admitted != uint64(admitted) {
		t.Fatalf("admission ledger disagrees with clients: controller %d, clients %d",
			st.Admitted, admitted)
	}
	if st.Completions != st.Admitted {
		t.Fatalf("exactly-once violated: %d admissions, %d completions", st.Admitted, st.Completions)
	}
	if st.MaxInflight > bound {
		t.Fatalf("in-flight high water %d exceeded servers+depth bound %d", st.MaxInflight, bound)
	}
	if badRetry != 0 {
		t.Fatalf("%d rejections carried no retry horizon", badRetry)
	}
	if admitted == 0 {
		t.Fatal("hammer admitted nothing; test is vacuous")
	}
	if st.RejectedRate+st.RejectedQueue == 0 {
		t.Fatal("tiny queue never rejected; test is vacuous")
	}
	if st.Resizes == 0 {
		t.Fatalf("no live re-size over %d completions; test is vacuous", st.Completions)
	}
}

// TestAdmissionQueueNeverExceedsBound drives admits with no Done calls
// at all: the controller must stop at exactly servers + depth.
func TestAdmissionQueueNeverExceedsBound(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{
		Servers:            2,
		TargetP99:          time.Second,
		InitialMeanService: 10 * time.Millisecond,
		FairShare:          1, // whole rate to one tenant: only the queue bound stops us
	})
	if err != nil {
		t.Fatal(err)
	}
	depth := a.Sizing().QueueDepth
	now := time.Now()
	got := 0
	for i := 0; i < 2+depth+100; i++ {
		// Generous refill between attempts so the token bucket never binds.
		now = now.Add(time.Second)
		if d := a.Admit("hog", now); d.OK {
			got++
		} else if d.Reason != ReasonQueue {
			t.Fatalf("expected queue rejection once full, got %q", d.Reason)
		}
	}
	if want := 2 + depth; got != want {
		t.Fatalf("admitted %d without any completions; bound is %d", got, want)
	}
}

func TestAdmissionClose(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{
		Servers: 1, TargetP99: time.Second, InitialMeanService: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	d := a.Admit("x", time.Now())
	if d.OK || d.Reason != ReasonClosed {
		t.Fatalf("closed controller admitted: %+v", d)
	}
}

// TestAdmissionResizesOnDrift holds service at the seed for part of a
// window, then steps it up 8x: the controller must re-size within two
// windows of the step, shrink lambda, and end with a sized mean within
// resizeBand of the new service time.
func TestAdmissionResizesOnDrift(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{
		Servers:            2,
		TargetP99:          2 * time.Second,
		InitialMeanService: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := a.Sizing()
	now := time.Now()
	complete := func(service time.Duration) {
		now = now.Add(time.Second)
		if d := a.Admit("t", now); !d.OK {
			t.Fatalf("rejected: %s", d.Reason)
		}
		a.Done(service)
	}
	for i := 0; i < resizeWindow+100; i++ {
		complete(time.Millisecond)
	}
	if st := a.Stats(); st.Resizes != 0 {
		t.Fatalf("service at the seed re-sized %d times", st.Resizes)
	}
	const slow = 8 * time.Millisecond
	for i := 0; i < 2*resizeWindow; i++ {
		complete(slow)
	}
	after := a.Sizing()
	if a.Stats().Resizes == 0 {
		t.Fatalf("8x step never re-sized within two windows: before=%+v after=%+v", before, after)
	}
	if after.Lambda >= before.Lambda {
		t.Fatalf("slower service must shrink lambda: before %.1f, after %.1f",
			before.Lambda, after.Lambda)
	}
	if off := math.Abs(float64(after.MeanService-slow)) / float64(slow); off > resizeBand {
		t.Fatalf("sized mean %v is %.0f%% from the new service time %v", after.MeanService, 100*off, slow)
	}
}

// TestSizedLimitHoldsP99 is the property test closing the loop between
// sizing.go and internal/queuing's discrete-event simulator: offer the
// sized arrival rate to a simulated station with the matching service
// distribution and the measured p99 sojourn must come in at or under
// the target (within simulation noise). The model is exact for M/M/c,
// so this catches sizing-math regressions, not model error.
func TestSizedLimitHoldsP99(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		servers := 1 + rng.Intn(4)
		mean := time.Duration(1+rng.Intn(20)) * time.Millisecond
		// Targets comfortably above the service tail so the sizing is
		// attainable and rho lands in the interesting mid-range.
		target := time.Duration(8+rng.Intn(40)) * mean
		s, err := SizeAdmission(servers, mean, target)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Attainable {
			t.Fatalf("trial %d: target %v should be attainable for mean %v", trial, target, mean)
		}
		sim, err := queuing.Simulate(
			queuing.Exponential(s.Lambda),
			queuing.Exponential(1/mean.Seconds()),
			servers, 60000, 4000, int64(100+trial),
		)
		if err != nil {
			t.Fatal(err)
		}
		p99 := stats.Percentile(append([]float64(nil), sim.Sojourns...), 99)
		measured := time.Duration(p99 * float64(time.Second))
		// 20% headroom: 60k exponential customers leave real noise in the
		// 99th percentile.
		if measured > target+target/5 {
			t.Errorf("trial %d (c=%d mean=%v target=%v lambda=%.2f): simulated p99 %v blew the target",
				trial, servers, mean, target, s.Lambda, measured)
		}
	}
}

// TestSizedLimitDeterministicService: with deterministic service times
// (lighter tail than the exponential the model assumes) the sized
// limit must hold with room to spare — the model is conservative here.
func TestSizedLimitDeterministicService(t *testing.T) {
	mean := 5 * time.Millisecond
	target := 100 * time.Millisecond
	s, err := SizeAdmission(3, mean, target)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := queuing.Simulate(
		queuing.Exponential(s.Lambda),
		queuing.Deterministic(mean.Seconds()),
		3, 40000, 2000, 11,
	)
	if err != nil {
		t.Fatal(err)
	}
	p99 := stats.Percentile(append([]float64(nil), sim.Sojourns...), 99)
	if measured := time.Duration(p99 * float64(time.Second)); measured > target {
		t.Fatalf("deterministic service should sit under the target: measured %v, target %v",
			measured, target)
	}
}

// TestAdmissionResizeCadence makes the re-size count visible. A
// steady service time equal to the seed never leaves the band, so it
// never re-sizes. Mixes of 2 µs and 60 µs jobs, strictly alternating
// or in a seeded random order with jobs-small's proportions (three
// short jobs to one long), re-size at most once per window: the first
// window moves the sizing from the seed to the mix's mean, and a
// 256-job mean of the mix seldom leaves the band after that. A live
// re-size allocates nothing: one whole window of Admit+Done that ends
// in a re-size is 0 allocs.
func TestAdmissionResizeCadence(t *testing.T) {
	const completions = 16 * resizeWindow
	short, long := 2*time.Microsecond, 60*time.Microsecond
	run := func(name string, service func(i int) time.Duration) AdmissionStats {
		a, err := NewAdmission(AdmissionConfig{
			Servers:            2,
			TargetP99:          2 * time.Second,
			InitialMeanService: long,
		})
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(0, 0)
		for i := 0; i < completions; i++ {
			now = now.Add(time.Second)
			if d := a.Admit("t", now); !d.OK {
				t.Fatalf("%s: completion %d rejected: %s", name, i, d.Reason)
			}
			a.Done(service(i))
		}
		st := a.Stats()
		t.Logf("%s: %d resizes over %d completions", name, st.Resizes, st.Completions)
		if windows := st.Completions / resizeWindow; st.Resizes > windows {
			t.Errorf("%s: %d resizes over %d completions, more than one per window (%d)",
				name, st.Resizes, st.Completions, windows)
		}
		return st
	}
	if st := run("steady 60 µs", func(int) time.Duration { return long }); st.Resizes != 0 {
		t.Fatalf("steady service at the seed: %d resizes over %d completions, want 0",
			st.Resizes, st.Completions)
	}
	run("alternating 2 µs/60 µs", func(i int) time.Duration {
		if i%2 == 0 {
			return short
		}
		return long
	})
	rng := rand.New(rand.NewSource(1))
	run("random 3:1 2 µs/60 µs", func(int) time.Duration {
		if rng.Intn(4) == 0 {
			return long
		}
		return short
	})

	a, err := NewAdmission(AdmissionConfig{Servers: 2, TargetP99: 2 * time.Second,
		InitialMeanService: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	service := time.Millisecond
	// window runs one whole window at a service time 4x away from the
	// last one's, so that it ends in a re-size. AllocsPerRun divides the
	// allocation count by its runs in integers, so it must measure a
	// whole window: one allocation spread over 256 probes would read 0.
	window := func() {
		service = 5*time.Millisecond - service // 1 ms <-> 4 ms
		for i := 0; i < resizeWindow; i++ {
			now = now.Add(time.Second)
			if a.Admit("t", now).OK {
				a.Done(service)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, window); allocs != 0 {
		t.Fatalf("Admit+Done over a window that re-sizes: %v allocs/window", allocs)
	}
	if st := a.Stats(); st.Resizes != 11 {
		t.Fatalf("%d resizes over 11 windows, want one each", st.Resizes)
	}
}
