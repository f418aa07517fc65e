// The runtime collector: the one reader of the Go runtime. It publishes
// runtime health — scheduler, GC, heap — into the registry on a ticker
// and, through Read, whenever a caller asks (perfeng's profiler span
// exits). Every sample is mirrored to the sinks attached to
// Collector.Samples (the obs session's counter series, the flight
// recorder), so live monitoring and the Chrome-trace view stay one
// dataset.
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
	// runs; they are called from the sampling goroutine or from Read's
	// caller, one pass at a time.
	Samples probe.Hook[Sample]

	mu sync.Mutex // serializes sampling passes, ticks and Reads alike

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

// Read takes one raw reading of the runtime: the curated table in one
// runtime/metrics.Read plus the MemStats trio, published to the
// registry and the Samples sinks. It leaves the derived interval
// ratios and the tick counter alone, so it may run between ticks (a
// profiler span exit does) without changing what the ratios mean.
func (c *Collector) Read() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.read()
}

// read is Read under c.mu; it returns the cumulative GC pause seconds
// it published.
func (c *Collector) read() float64 {
	// MemStats first: its stop-the-world flushes every P's cached spans,
	// so the table's allocation counters read next are exact at this
	// instant instead of lagging by a span per size class and P. Its
	// cumulative GC pause total is exact too, where runtime/metrics only
	// has a bucketed pause histogram.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
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
	pause := float64(ms.PauseTotalNs) / 1e9
	c.pauses.Set(pause)
	c.Samples.Emit(Sample{"go_gc_pause_total_seconds", pause})
	c.heapInuse.Set(float64(ms.HeapInuse))
	c.Samples.Emit(Sample{"go_memstats_heap_inuse_bytes", float64(ms.HeapInuse)})
	c.stackInuse.Set(float64(ms.StackInuse))
	c.Samples.Emit(Sample{"go_memstats_stack_inuse_bytes", float64(ms.StackInuse)})
	return pause
}

// SampleOnce is one tick: a Read, then the derived interval ratios and
// the tick counter. Exported so tests and one-shot tools can sample
// without the background loop.
func (c *Collector) SampleOnce() {
	c.mu.Lock()
	defer c.mu.Unlock()
	pause := c.read()

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
