// The runtime collector: a background sampler that publishes Go
// runtime health — scheduler, GC, heap — into the registry on a ticker,
// and mirrors every sample to the sinks attached to Collector.Samples
// (the obs session's counter series, the flight recorder) so live
// monitoring and the Chrome-trace view stay one dataset.
package telemetry

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"perfeng/internal/probe"
)

// Sample is one collector reading of a named series, as delivered to
// Collector.Samples.
type Sample struct {
	Name  string
	Value float64
}

// runtimeMetrics is the curated runtime/metrics subset the collector
// samples, with the registry names they publish under. Cumulative
// runtime totals are exposed as gauges (the collector samples, it does
// not own the increments).
var runtimeMetrics = []struct {
	source string // runtime/metrics key
	name   string // registry metric name
	help   string
}{
	{"/sched/goroutines:goroutines", "go_sched_goroutines", "Live goroutines."},
	{"/sched/gomaxprocs:threads", "go_sched_gomaxprocs_threads", "GOMAXPROCS."},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total_cycles", "Completed GC cycles since process start."},
	{"/gc/heap/allocs:bytes", "go_gc_heap_allocs_bytes", "Cumulative bytes allocated on the heap."},
	{"/gc/heap/allocs:objects", "go_gc_heap_allocs_objects", "Cumulative heap objects allocated."},
	{"/memory/classes/heap/objects:bytes", "go_memory_heap_objects_bytes", "Bytes of live heap objects."},
	{"/memory/classes/total:bytes", "go_memory_total_bytes", "All memory mapped by the Go runtime."},
}

// Collector samples the runtime into a registry on a fixed interval.
type Collector struct {
	reg      *Registry
	interval time.Duration

	// Samples receives every sampled value in addition to the registry:
	// the bridge that lands live series in a trace timeline and the
	// flight recorder. Sinks may attach and detach while the collector
	// runs; they are called from the sampling goroutine.
	Samples probe.Hook[Sample]

	mu sync.Mutex // serializes sampling passes

	gauges     []*Gauge // aligned with the scalar entries of runtimeMetrics
	names      []string // exposition names, same alignment
	samples    []rtmetrics.Sample
	pauses     *Gauge // GC pause total from the runtime histogram
	heapInuse  *Gauge
	stackInuse *Gauge
	ticks      *Counter

	// Derived SLO-trigger gauges: interval-delta ratios a burn objective
	// can watch directly instead of re-deriving from raw cumulative
	// counters on every evaluation.
	gcBurn     *Gauge   // pause seconds per wall second over the last interval
	stealRatio *Gauge   // failed steal sweeps per steal attempt, last interval
	steals     *Counter // the sched counters the ratio derives from
	stealFails *Counter
	prevPause  float64
	prevSteals uint64
	prevFails  uint64
	prevAt     time.Time

	stop chan struct{}
	done chan struct{}
}

// NewCollector creates a collector publishing into reg every interval
// (minimum 10ms; zero means 1s). Call Start to begin sampling.
func NewCollector(reg *Registry, interval time.Duration) *Collector {
	if interval <= 0 {
		interval = time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	c := &Collector{reg: reg, interval: interval}
	for _, m := range runtimeMetrics {
		//perfvet:ignore:allocattr gauge resolution runs once at collector construction, not per sample tick
		c.gauges = append(c.gauges, reg.Gauge(m.name, m.help))
		c.names = append(c.names, m.name)
		c.samples = append(c.samples, rtmetrics.Sample{Name: m.source})
	}
	c.pauses = reg.Gauge("go_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.")
	c.heapInuse = reg.Gauge("go_memstats_heap_inuse_bytes", "Heap bytes in in-use spans.")
	c.stackInuse = reg.Gauge("go_memstats_stack_inuse_bytes", "Stack bytes in use.")
	c.ticks = reg.Counter("perfeng_collector_ticks", "Collector sampling ticks.")
	c.gcBurn = reg.Gauge("go_gc_pause_burn_ratio",
		"Fraction of the last sampling interval spent in GC stop-the-world pauses (derived).")
	c.stealRatio = reg.Gauge("perfeng_sched_steal_failure_ratio",
		"Failed steal sweeps per steal attempt over the last sampling interval (derived).")
	// The sched counters the ratio derives from. register() returns the
	// existing series when sched.EnableTelemetry already created them (and
	// creates zero-valued ones otherwise, keeping the ratio well-defined
	// whether or not the scheduler publishes).
	c.steals = reg.Counter("perfeng_sched_steals",
		"Tasks taken from another worker's deque.")
	c.stealFails = reg.Counter("perfeng_sched_steal_failures",
		"Steal sweeps that found every deque empty.")
	return c
}

// Start launches the sampling loop. It samples once immediately so the
// registry is populated before the first scrape.
func (c *Collector) Start() {
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	c.SampleOnce()
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.SampleOnce()
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit. Idempotent; Start may
// be called again afterwards.
func (c *Collector) Stop() {
	if c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop, c.done = nil, nil
}

// SampleOnce reads the runtime and publishes one sample of every
// metric. Exported so tests and one-shot tools can sample without the
// background loop.
func (c *Collector) SampleOnce() {
	c.mu.Lock()
	defer c.mu.Unlock()
	rtmetrics.Read(c.samples)
	for i, s := range c.samples {
		var v float64
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			v = float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			v = s.Value.Float64()
		default:
			continue
		}
		c.gauges[i].Set(v)
		c.Samples.Emit(Sample{c.names[i], v})
	}

	// GC pause total from the runtime's pause histogram: sum of
	// bucket-weighted counts is overkill; MemStats carries the exact
	// cumulative total.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pause := float64(ms.PauseTotalNs) / 1e9
	c.pauses.Set(pause)
	c.Samples.Emit(Sample{"go_gc_pause_total_seconds", pause})
	c.heapInuse.Set(float64(ms.HeapInuse))
	c.Samples.Emit(Sample{"go_memstats_heap_inuse_bytes", float64(ms.HeapInuse)})
	c.stackInuse.Set(float64(ms.StackInuse))
	c.Samples.Emit(Sample{"go_memstats_stack_inuse_bytes", float64(ms.StackInuse)})

	// Derived interval deltas. The first sample has no interval, so both
	// ratios report zero until the second pass.
	now := time.Now()
	steals, fails := c.steals.Value(), c.stealFails.Value()
	if !c.prevAt.IsZero() {
		var burn float64
		if elapsed := now.Sub(c.prevAt).Seconds(); elapsed > 0 {
			burn = (pause - c.prevPause) / elapsed
		}
		c.gcBurn.Set(burn)
		c.Samples.Emit(Sample{"go_gc_pause_burn_ratio", burn})

		var ratio float64
		dSteals, dFails := steals-c.prevSteals, fails-c.prevFails
		if attempts := dSteals + dFails; attempts > 0 {
			ratio = float64(dFails) / float64(attempts)
		}
		c.stealRatio.Set(ratio)
		c.Samples.Emit(Sample{"perfeng_sched_steal_failure_ratio", ratio})
	}
	c.prevAt, c.prevPause = now, pause
	c.prevSteals, c.prevFails = steals, fails

	c.ticks.Inc()
}
