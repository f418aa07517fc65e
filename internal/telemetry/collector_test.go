package telemetry

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCollectorSampleOnce(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, time.Second)
	c.SampleOnce()
	snap := reg.Snapshot()
	byName := map[string]FamilySnapshot{}
	for _, f := range snap {
		byName[f.Name] = f
	}
	g, ok := byName["go_sched_goroutines"]
	if !ok {
		t.Fatal("goroutine gauge missing after sample")
	}
	if g.Series[0].Value < 1 {
		t.Fatalf("goroutines = %v, want >= 1", g.Series[0].Value)
	}
	if _, ok := byName["go_gc_heap_allocs_bytes"]; !ok {
		t.Fatal("heap alloc gauge missing")
	}
	if byName["perfeng_collector_ticks"].Series[0].Value != 1 {
		t.Fatal("tick counter did not advance")
	}
}

// testSink records samples for the obs-bridge contract.
type testSink struct {
	mu      sync.Mutex
	samples map[string][]float64
}

func (s *testSink) record(smp Sample) {
	s.mu.Lock()
	s.samples[smp.Name] = append(s.samples[smp.Name], smp.Value)
	s.mu.Unlock()
}

func TestCollectorBridgesToSink(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, time.Second)
	sink := &testSink{samples: map[string][]float64{}}
	defer c.Samples.Attach(sink.record)()
	c.SampleOnce()
	c.SampleOnce()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	got := sink.samples["go_sched_goroutines"]
	if len(got) != 2 {
		t.Fatalf("sink received %d goroutine samples, want 2", len(got))
	}
	if len(sink.samples["go_gc_pause_total_seconds"]) != 2 {
		t.Fatal("memstats-derived series did not reach the sink")
	}
}

func TestCollectorStartStop(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, 10*time.Millisecond)
	ticks := reg.Counter("perfeng_collector_ticks", "Collector sampling ticks.")
	c.Start()
	deadline := time.Now().Add(2 * time.Second)
	for ticks.Value() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c.Stop()
	if got := ticks.Value(); got < 3 {
		t.Fatalf("collector ticked %d times in 2s at 10ms interval", got)
	}
	after := ticks.Value()
	time.Sleep(30 * time.Millisecond)
	if ticks.Value() != after {
		t.Fatal("collector still ticking after Stop")
	}
	// Stop is idempotent and Start may be called again.
	c.Stop()
	c.Start()
	c.Stop()
}

// TestCollectorReadSeesAllocations: a Read after a region reports all
// of the region's heap allocations in go_gc_heap_allocs_bytes, small
// objects included. runtime/metrics counts a small object only once its
// span leaves the P's cache, so this holds because Read flushes the
// caches (ReadMemStats) before it reads the table: the reading then
// matches a MemStats total taken right after it.
func TestCollectorReadSeesAllocations(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, time.Second)
	allocs := reg.FindGauge("go_gc_heap_allocs_bytes")
	c.Read() // the first runtime/metrics read allocates its own tables
	c.Read()
	before := allocs.Value()
	keep := make([][]byte, 100)
	for i := range keep {
		keep[i] = make([]byte, 1024)
	}
	c.Read()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	got := allocs.Value()
	if got-before < 100*1024 {
		t.Fatalf("allocs delta = %v B, want >= %d", got-before, 100*1024)
	}
	if lag := float64(ms.TotalAlloc) - got; lag >= 1024 {
		t.Fatalf("Read's allocs total lags MemStats by %v B: objects in cached spans went uncounted", lag)
	}
	_ = keep
}

// TestCollectorReadLeavesDerivedGauges: a Read between two ticks
// publishes the raw series but neither ticks nor moves the interval the
// derived ratios cover. A GC is forced between the ticks and a Read
// follows it: had the Read taken the tick's place as the interval
// start, the burn ratio would read 0.
func TestCollectorReadLeavesDerivedGauges(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, time.Second)
	pause := reg.FindGauge("go_gc_pause_total_seconds")
	burn := reg.FindGauge("go_gc_pause_burn_ratio")
	ticks := reg.Counter("perfeng_collector_ticks", "Collector sampling ticks.")

	t0 := time.Now()
	c.SampleOnce()
	t1 := time.Now()
	p1 := pause.Value()
	runtime.GC()
	c.Read()
	c.Read()
	if got := ticks.Value(); got != 1 {
		t.Fatalf("ticks after one tick and two Reads = %d, want 1", got)
	}
	if got := burn.Value(); got != 0 {
		t.Fatalf("burn ratio moved by a Read: %v, want the first tick's 0", got)
	}
	t2 := time.Now()
	c.SampleOnce()
	t3 := time.Now()
	dp := pause.Value() - p1
	if dp <= 0 {
		t.Fatalf("pause total did not grow across a forced GC: %v", dp)
	}
	// The ticks' own interval lies between the inner and outer brackets.
	lo, hi := dp/t3.Sub(t0).Seconds(), dp/t2.Sub(t1).Seconds()
	if got := burn.Value(); got < lo || got > hi {
		t.Fatalf("burn ratio = %v, want the tick-to-tick %v..%v", got, lo, hi)
	}
}

// passLog reconstructs sampling passes from the Samples stream, which
// c.mu serializes: every pass ends with the MemStats trio, and a tick
// then adds the derived ratios (from its second pass on).
type passLog struct {
	mu     sync.Mutex
	passes []pass
}

type pass struct {
	pause, burn float64
	tick        bool
	at          time.Time // when the tick published its burn ratio
}

func (l *passLog) record(smp Sample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch smp.Name {
	case "go_gc_pause_total_seconds":
		l.passes = append(l.passes, pass{pause: smp.Value})
	case "go_gc_pause_burn_ratio":
		p := &l.passes[len(l.passes)-1]
		p.burn, p.tick, p.at = smp.Value, true, time.Now()
	}
}

// TestCollectorReadRacesTicker: span-exit Reads from several goroutines
// race the running collector's ticker (run it under -race) and leave
// every tick's burn ratio equal to what the ticks alone give: zero
// exactly when the pause total did not move since the previous tick,
// and otherwise that move over the tick-to-tick time.
func TestCollectorReadRacesTicker(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, 10*time.Millisecond)
	log := &passLog{}
	defer c.Samples.Attach(log.record)()
	c.Start()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if i%10 == 0 {
					runtime.GC()
				}
				c.Read()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	c.Stop()

	log.mu.Lock()
	defer log.mu.Unlock()
	var prev *pass
	checked := 0
	for i := range log.passes {
		p := &log.passes[i]
		if !p.tick {
			continue
		}
		if prev != nil {
			dp, dt := p.pause-prev.pause, p.at.Sub(prev.at).Seconds()
			if (p.burn == 0) != (dp == 0) {
				t.Fatalf("tick burn %v with tick-to-tick pause move %v", p.burn, dp)
			}
			// The sink stamps each tick a little after the tick's own
			// clock read; allow for that jitter, and skip ticks a late
			// ticker fired back to back.
			if dp > 0 && dt > 5e-3 && (p.burn*dt < dp/2 || p.burn*dt > 2*dp) {
				t.Fatalf("tick burn %v over %vs, want about %v", p.burn, dt, dp/dt)
			}
			checked++
		}
		prev = p
	}
	if reads := len(log.passes) - checked; checked < 2 || reads <= checked {
		t.Fatalf("%d ticks checked among %d passes: too few to test the race", checked, len(log.passes))
	}
}

// TestCollectorReadAllocs: a Read allocates nothing of its own; only
// what its sinks keep grows.
func TestCollectorReadAllocs(t *testing.T) {
	c := NewCollector(nil, 0)
	var sum float64
	defer c.Samples.Attach(func(s Sample) { sum += s.Value })()
	c.Read()
	if got := testing.AllocsPerRun(100, c.Read); got != 0 {
		t.Fatalf("Read allocates %v objects per call, want 0", got)
	}
}
