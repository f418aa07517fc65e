// End-to-end producer instrumentation test: enable telemetry in every
// instrumented package, run a small workload through each, and verify
// the series arrive in one registry and survive a scrape round-trip.
// Lives in the external test package so it can import the producers
// (they import telemetry).
package telemetry_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perfeng/internal/cluster"
	"perfeng/internal/flight"
	"perfeng/internal/gpu"
	"perfeng/internal/machine"
	"perfeng/internal/metrics"
	"perfeng/internal/obs"
	"perfeng/internal/queuing"
	"perfeng/internal/sched"
	"perfeng/internal/simulator"
	"perfeng/internal/telemetry"
	"perfeng/internal/tune"
)

// enableAll points every producer at reg and restores the disabled
// state when the test finishes, so package-global telemetry does not
// leak into other tests.
func enableAll(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	setAll(reg)
	t.Cleanup(func() { setAll(nil) })
}

// setAll points all seven producers at reg; nil turns them all off.
func setAll(reg *telemetry.Registry) {
	sched.EnableTelemetry(reg)
	tune.EnableTelemetry(reg)
	metrics.EnableTelemetry(reg)
	gpu.EnableTelemetry(reg)
	cluster.EnableTelemetry(reg)
	simulator.EnableTelemetry(reg)
	queuing.EnableTelemetry(reg)
}

func TestProducersPublishToOneRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	enableAll(t, reg)

	// metrics.Runner: one quick measurement.
	runner := metrics.NewRunner(metrics.QuickConfig())
	runner.Measure("tel-test", 1, 1, func() { time.Sleep(10 * time.Microsecond) })

	// gpu.Device: one named launch.
	dev, err := gpu.NewDevice(machine.DAS5TitanX())
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float64, 64)
	if err := dev.LaunchNamed("teltest", gpu.Dim3{X: 2, Y: 1, Z: 1}, gpu.Dim3{X: 32, Y: 1, Z: 1}, 0,
		func(b, th gpu.Dim3, _ []float64) { sum[b.X*32+th.X]++ }); err != nil {
		t.Fatal(err)
	}

	// cluster.Tracer: a send/recv pair plus wait-state analysis.
	tr := cluster.NewTracer(2)
	base := tr.Epoch()
	tr.RecordEvent(0, cluster.Event{Kind: cluster.EvSend, Peer: 1, Bytes: 1024,
		Start: base.Add(2 * time.Millisecond), End: base.Add(3 * time.Millisecond)})
	tr.RecordEvent(1, cluster.Event{Kind: cluster.EvRecv, Peer: 0, Bytes: 1024,
		Start: base, End: base.Add(3 * time.Millisecond)})
	tr.AnalyzeWaitStates()

	// simulator: a short access stream, published at a safe point.
	c1, err := simulator.NewCache("L1", 64, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := simulator.NewHierarchy(c1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		hier.Load(uint64(i*8), 8)
	}
	hier.PublishTelemetry()

	// queuing: one small M/M/1 run.
	if _, err := queuing.Simulate(queuing.Exponential(1), queuing.Exponential(2), 1, 200, 10, 1); err != nil {
		t.Fatal(err)
	}

	byName := map[string]telemetry.FamilySnapshot{}
	for _, f := range reg.Snapshot() {
		byName[f.Name] = f
	}
	counterVal := func(name string) uint64 {
		f, ok := byName[name]
		if !ok || len(f.Series) == 0 {
			t.Fatalf("family %s missing from registry (have %d families)", name, len(byName))
		}
		var total uint64
		for _, s := range f.Series {
			total += uint64(s.Value)
		}
		return total
	}

	if got := counterVal("perfeng_runner_measurements"); got != 1 {
		t.Errorf("runner measurements = %d, want 1", got)
	}
	if counterVal("perfeng_runner_samples") == 0 {
		t.Error("runner published no samples")
	}
	if got := counterVal("perfeng_gpu_launches"); got != 1 {
		t.Errorf("gpu launches = %d, want 1", got)
	}
	if got := counterVal("perfeng_gpu_blocks"); got != 2 {
		t.Errorf("gpu blocks = %d, want 2", got)
	}
	occ := byName["perfeng_gpu_occupancy_fraction"]
	if len(occ.Series) != 1 || occ.Series[0].Value <= 0 || occ.Series[0].Value > 1 {
		t.Errorf("gpu occupancy gauge: %+v", occ.Series)
	}
	if got := counterVal("perfeng_cluster_events"); got != 2 {
		t.Errorf("cluster events = %d, want 2", got)
	}
	if got := counterVal("perfeng_cluster_bytes_sent"); got != 1024 {
		t.Errorf("cluster bytes sent = %d, want 1024", got)
	}
	if got := counterVal("perfeng_cluster_bytes_recv"); got != 1024 {
		t.Errorf("cluster bytes recv = %d, want 1024", got)
	}
	// Rank 1's recv started 2ms before the send: late-sender time shows up.
	if ls := byName["perfeng_cluster_late_sender_seconds"]; len(ls.Series) == 0 || ls.Series[0].Value <= 0 {
		t.Errorf("late-sender gauge not refreshed: %+v", ls.Series)
	}
	if got := counterVal("perfeng_simcache_accesses"); got != 1000 {
		t.Errorf("simcache accesses = %d, want 1000", got)
	}
	if counterVal("perfeng_simcache_hits") == 0 || counterVal("perfeng_simcache_misses") == 0 {
		t.Error("simcache published no hits or no misses")
	}
	if got := counterVal("perfeng_queuing_runs"); got != 1 {
		t.Errorf("queuing runs = %d, want 1", got)
	}
	if got := counterVal("perfeng_queuing_customers"); got != 200 {
		t.Errorf("queuing customers = %d, want 200", got)
	}

	// The combined registry must still render and parse as OpenMetrics.
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ParseOpenMetrics(&buf); err != nil {
		t.Fatalf("combined exposition does not parse: %v", err)
	}
}

// TestSimulatorPublishDeltas verifies repeated publication forwards
// deltas, not cumulative totals, and survives a Reset.
func TestSimulatorPublishDeltas(t *testing.T) {
	reg := telemetry.NewRegistry()
	simulator.EnableTelemetry(reg)
	t.Cleanup(func() { simulator.EnableTelemetry(nil) })

	c1, err := simulator.NewCache("L1", 64, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := simulator.NewHierarchy(c1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		hier.Load(uint64(i*64), 8)
	}
	hier.PublishTelemetry()
	hier.PublishTelemetry() // no new activity: must not double-count
	for i := 0; i < 50; i++ {
		hier.Load(uint64(i*64), 8)
	}
	hier.PublishTelemetry()
	hier.Reset()
	for i := 0; i < 25; i++ {
		hier.Load(uint64(i*64), 8)
	}
	hier.PublishTelemetry() // post-Reset stats are smaller: fresh start, no wrap

	var accesses uint64
	for _, f := range reg.Snapshot() {
		if f.Name == "perfeng_simcache_accesses" {
			accesses = uint64(f.Series[0].Value)
		}
	}
	if accesses != 175 {
		t.Fatalf("published accesses = %d, want 175 (100+50+25)", accesses)
	}
}

// runProducers drives one small workload through each of the seven
// producers: a sched region on a fresh pool, an active tune lookup, a
// gpu launch, a cluster round plus wait-state analysis, a simulator
// publication, a queuing run and a runner measurement.
func runProducers(t *testing.T) {
	t.Helper()
	p := sched.New(2)
	p.For(4096, 256, func(lo, hi int) {})
	p.Close()

	tune.ActivateOne(tune.KernelMatMul, 256, tune.Config{Tile: 32})
	_, hit := tune.Lookup(tune.KernelMatMul, 256)
	tune.Activate(nil)
	if !hit {
		t.Fatal("one-entry tune table missed its own shape")
	}

	dev, err := gpu.NewDevice(machine.DAS5TitanX())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LaunchNamed("silent", gpu.Dim3{X: 2, Y: 1, Z: 1}, gpu.Dim3{X: 32, Y: 1, Z: 1}, 0,
		func(b, th gpu.Dim3, _ []float64) {}); err != nil {
		t.Fatal(err)
	}

	w, err := cluster.NewWorld(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := w.EnableTracing()
	if err := w.Run(func(c *cluster.Comm) error {
		_, err := c.SendRecv(1-c.Rank(), 0, []float64{1, 2})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tr.AnalyzeWaitStates()

	c1, err := simulator.NewCache("L1", 64, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := simulator.NewHierarchy(c1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		hier.Load(uint64(i*64), 8)
	}
	hier.PublishTelemetry()

	if _, err := queuing.Simulate(queuing.Exponential(1), queuing.Exponential(2), 1, 10, 0, 1); err != nil {
		t.Fatal(err)
	}

	metrics.NewRunner(metrics.QuickConfig()).Measure("silent", 1, 1, func() {})
}

// settledSnapshot waits for reg to stop changing and returns its
// snapshot. Pool workers count failed steal sweeps as they go idle,
// which can land just after the region that caused them returned.
func settledSnapshot(reg *telemetry.Registry) []telemetry.FamilySnapshot {
	prev := reg.Snapshot()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := reg.Snapshot()
		if reflect.DeepEqual(prev, cur) {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestProducersDisabledAreSilent runs every producer with telemetry
// off and checks nothing registers anywhere.
func TestProducersDisabledAreSilent(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Not enabled: producers must not touch any registry.
	runProducers(t)
	if snap := reg.Snapshot(); len(snap) != 0 {
		t.Fatalf("disabled producers registered %d families", len(snap))
	}
}

// TestProducersSilentAfterDisable enables a registry, runs every
// producer (so cached handles exist), turns telemetry off and runs them
// again: the registry must not move.
func TestProducersSilentAfterDisable(t *testing.T) {
	reg := telemetry.NewRegistry()
	enableAll(t, reg)
	runProducers(t)
	setAll(nil)
	before := settledSnapshot(reg)
	runProducers(t)
	if after := settledSnapshot(reg); !reflect.DeepEqual(before, after) {
		t.Fatalf("disabled producers published:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestSimulatorDisabledPublishKeepsBaseline: a publication while
// telemetry is off forwards nothing and moves no baseline, so the
// first publication after enabling carries all activity so far.
func TestSimulatorDisabledPublishKeepsBaseline(t *testing.T) {
	c1, err := simulator.NewCache("L1", 64, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := simulator.NewHierarchy(c1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		hier.Load(uint64(i*64), 8)
	}
	hier.PublishTelemetry() // disabled

	reg := telemetry.NewRegistry()
	simulator.EnableTelemetry(reg)
	t.Cleanup(func() { simulator.EnableTelemetry(nil) })
	for i := 0; i < 50; i++ {
		hier.Load(uint64(i*64), 8)
	}
	hier.PublishTelemetry()

	got := map[string]uint64{}
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			got[f.Name] += uint64(s.Value)
		}
	}
	st := c1.Stats()
	want := map[string]uint64{
		"perfeng_simcache_accesses": 150,
		"perfeng_simcache_hits":     st.Hits,
		"perfeng_simcache_misses":   st.Misses,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first publication after enabling = %v, want %v", got, want)
	}
}

// BenchmarkProducerOverhead measures a real producer end-to-end with
// telemetry off and on — the enabled-vs-disabled delta EXPERIMENTS.md
// reports. The queuing simulator publishes once per run (a counter add
// and two gauge sets after ~1 ms of simulation), so the instrumented
// path should be indistinguishable from the plain one.
func BenchmarkProducerOverhead(b *testing.B) {
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := queuing.Simulate(queuing.Exponential(2), queuing.Exponential(3),
				1, 2000, 200, 42); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("queuing-disabled", run)
	b.Run("queuing-enabled", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		queuing.EnableTelemetry(reg)
		defer queuing.EnableTelemetry(nil)
		run(b)
	})

	// The timeline fan-out: one parallel region of 16 tasks on a
	// two-worker pool with no task sink, with the flight recorder's, and
	// with the flight recorder's plus a live obs session's. The session
	// is replaced every 256 regions so its span list stays small.
	const n, grain = 4096, 256
	var total atomic.Int64
	body := func(lo, hi int) { total.Add(int64(hi - lo)) }
	forCase := func(name string, sinks func(p *sched.Pool) (detach func())) {
		b.Run("sched-for/"+name, func(b *testing.B) {
			p := sched.New(2)
			defer p.Close()
			detach := sinks(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 255 {
					b.StopTimer()
					detach()
					detach = sinks(p)
					b.StartTimer()
				}
				p.For(n, grain, body)
			}
			b.StopTimer()
			detach()
		})
	}
	rec := flight.NewRecorder(0)
	forCase("no-sink", func(*sched.Pool) func() { return func() {} })
	schedReg := telemetry.NewRegistry()
	forCase("telemetry", func(*sched.Pool) func() {
		sched.EnableTelemetry(schedReg)
		return func() { sched.EnableTelemetry(nil) }
	})
	forCase("flight", func(p *sched.Pool) func() { return p.Tasks.Attach(flight.SchedSink(rec)) })
	forCase("flight+obs", func(p *sched.Pool) func() {
		detachObs := p.Tasks.Attach(obs.SchedSink(obs.NewSession("bench")))
		detachFlight := p.Tasks.Attach(flight.SchedSink(rec))
		return func() { detachObs(); detachFlight() }
	})
}

func TestExpositionContainsProducerHelp(t *testing.T) {
	reg := telemetry.NewRegistry()
	cluster.EnableTelemetry(reg)
	t.Cleanup(func() { cluster.EnableTelemetry(nil) })
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# HELP perfeng_cluster_events Traced communication events by kind.") {
		t.Fatalf("producer HELP text missing:\n%s", buf.String())
	}
}
