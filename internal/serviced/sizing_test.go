package serviced

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"perfeng/internal/queuing"
)

// sizeAdmissionQuantile is SizeAdmission as it was before the tail
// predicate: every outer bisection step bisects for the p99 sojourn
// with SojournQuantile and compares it to the target. It is the oracle
// for TestSizeAdmissionMatchesQuantileOracle.
func sizeAdmissionQuantile(servers int, meanService, targetP99 time.Duration) (Sizing, error) {
	if servers < 1 {
		return Sizing{}, errors.New("serviced: need at least one executor")
	}
	if meanService <= 0 || targetP99 <= 0 {
		return Sizing{}, errors.New("serviced: service time and target must be positive")
	}
	s := Sizing{Servers: servers, MeanService: meanService, TargetP99: targetP99, Attainable: true}
	mu := 1 / meanService.Seconds()
	target := targetP99.Seconds()
	capacity := float64(servers) * mu
	serviceP99 := math.Log(100) / mu
	if serviceP99 >= target {
		s.Attainable = false
		s.Lambda = 0.5 * capacity
		s.QueueDepth = servers
		m, err := queuing.AnalyzeMMC(s.Lambda, mu, servers)
		if err != nil {
			return Sizing{}, fmt.Errorf("serviced: fallback sizing: %w", err)
		}
		s.Rho = m.Rho
		q, err := m.SojournQuantile(0.99)
		if err != nil {
			return Sizing{}, err
		}
		s.ModeledP99 = time.Duration(q * float64(time.Second))
		return s, nil
	}
	feasible := func(lambda float64) bool {
		m, err := queuing.AnalyzeMMC(lambda, mu, servers)
		if err != nil {
			return false
		}
		q, err := m.SojournQuantile(0.99)
		return err == nil && q <= target
	}
	lo := capacity * 1e-6
	hi := capacity * (1 - 1e-9)
	if !feasible(lo) {
		lo = 0.5 * capacity
	} else {
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if feasible(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	s.Lambda = lo
	m, err := queuing.AnalyzeMMC(s.Lambda, mu, servers)
	if err != nil {
		return Sizing{}, err
	}
	s.Rho = m.Rho
	q, err := m.SojournQuantile(0.99)
	if err != nil {
		return Sizing{}, err
	}
	s.ModeledP99 = time.Duration(q * float64(time.Second))
	k := int(math.Floor((target - serviceP99) * capacity))
	if k < 1 {
		k = 1
	}
	if k > maxQueueDepth {
		k = maxQueueDepth
	}
	s.QueueDepth = k
	return s, nil
}

// sizingCase is one (servers, mean service, target) input.
type sizingCase struct {
	servers         int
	mean, targetP99 time.Duration
}

// sizingGrid is servers {1,2,3,4,16} x mean service 2 µs..400 ms x
// target 50 ms..8 s; the slow services against the tight targets are
// the unattainable corner.
func sizingGrid() []sizingCase {
	var cases []sizingCase
	means := []time.Duration{2 * time.Microsecond, 20 * time.Microsecond, 60 * time.Microsecond,
		200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
		100 * time.Millisecond, 400 * time.Millisecond}
	targets := []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
		2 * time.Second, 8 * time.Second}
	for _, c := range []int{1, 2, 3, 4, 16} {
		for _, m := range means {
			for _, t := range targets {
				cases = append(cases, sizingCase{c, m, t})
			}
		}
	}
	return cases
}

// nearEmptyMiss returns a target a few hundred nanoseconds above the
// p99 of one exponential service of the given mean: an empty system
// meets it, but one with a millionth of its capacity offered does not.
func nearEmptyMiss(mean time.Duration) time.Duration {
	return time.Duration(math.Log(100)*float64(mean)*(1+1e-7)) + 1
}

// TestSizeAdmissionMatchesQuantileOracle: the tail predicate must size
// exactly as the quantile bisection did. QueueDepth comes from the same
// closed form and must be equal; Lambda may differ only by the
// inner bisection's rounding; and an attainable sizing must model its
// p99 within the target. Attainable also matches the oracle, except in
// the near-empty-miss corner, where the oracle reported an attainable
// sizing whose modeled p99 exceeds the target; SizeAdmission takes the
// unattainable fallback there, QueueDepth = servers included.
func TestSizeAdmissionMatchesQuantileOracle(t *testing.T) {
	var unattainable, nearEmpty int
	check := func(c sizingCase, corner bool) {
		t.Helper()
		name := fmt.Sprintf("c=%d mean=%v target=%v", c.servers, c.mean, c.targetP99)
		want, err := sizeAdmissionQuantile(c.servers, c.mean, c.targetP99)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		got, err := SizeAdmission(c.servers, c.mean, c.targetP99)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !corner && got.QueueDepth != want.QueueDepth {
			t.Errorf("%s: QueueDepth %d, oracle %d", name, got.QueueDepth, want.QueueDepth)
		}
		if rel := math.Abs(got.Lambda-want.Lambda) / want.Lambda; rel > 1e-12 {
			t.Errorf("%s: Lambda %v, oracle %v (relative %.2g)", name, got.Lambda, want.Lambda, rel)
		}
		if got.Attainable && got.ModeledP99 > got.TargetP99 {
			t.Errorf("%s: attainable, but modeled p99 %v exceeds the target", name, got.ModeledP99)
		}
		switch {
		case corner:
			if !want.Attainable || want.ModeledP99 <= want.TargetP99 || got.Attainable {
				t.Errorf("%s: near-empty miss: oracle attainable=%v p99=%v, got attainable=%v",
					name, want.Attainable, want.ModeledP99, got.Attainable)
			}
			if got.QueueDepth != c.servers {
				t.Errorf("%s: near-empty miss: QueueDepth %d, fallback %d", name, got.QueueDepth, c.servers)
			}
			nearEmpty++
		case got.Attainable != want.Attainable:
			t.Errorf("%s: Attainable %v, oracle %v", name, got.Attainable, want.Attainable)
		case !got.Attainable:
			unattainable++
		}
	}
	for _, c := range sizingGrid() {
		check(c, false)
	}
	for _, mean := range []time.Duration{time.Millisecond, 100 * time.Millisecond} {
		check(sizingCase{1, mean, nearEmptyMiss(mean)}, true)
	}
	// With two executors a millionth of capacity barely queues, so the
	// miss needs a target 1 ns above the service p99 of a long service;
	// here the fallback's QueueDepth (2) differs from the closed form (1).
	long := 100 * time.Second
	check(sizingCase{2, long, time.Duration(math.Log(100)*float64(long)) + 1}, true)
	if unattainable == 0 || nearEmpty == 0 {
		t.Fatalf("corners not reached: %d unattainable, %d near-empty misses", unattainable, nearEmpty)
	}
}

var sizingSink Sizing

// BenchmarkSizeAdmission times one sizing on an attainable objective,
// the live re-size Admission.Done runs under its mutex. It must not
// allocate.
func BenchmarkSizeAdmission(b *testing.B) {
	size := func() {
		var err error
		if sizingSink, err = SizeAdmission(2, 60*time.Microsecond, 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, size); a != 0 {
		b.Fatalf("SizeAdmission allocates: %v allocs/op", a)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		size()
	}
}
