package telemetry

import (
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
