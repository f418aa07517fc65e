// Shared session wiring for the trace, serve and flight subcommands:
// all run the same instrumented workload — the optimization ladder, a
// measured runner pass, a traced cluster round, a SIMT kernel launch, a
// cache simulation and a queuing run — against an obs session built the
// same way. trace does it once and writes files; serve loops it behind
// the monitoring endpoint; flight captures it in the black box.
package main

import (
	"time"

	"perfeng"
	"perfeng/internal/cluster"
	"perfeng/internal/counters"
	"perfeng/internal/flight"
	"perfeng/internal/gpu"
	"perfeng/internal/machine"
	"perfeng/internal/metrics"
	"perfeng/internal/obs"
	"perfeng/internal/profile"
	"perfeng/internal/queuing"
	"perfeng/internal/sched"
	"perfeng/internal/simulator"
)

// wiredSession is an obs session with the standard instrumentation
// attached: runtime counters sampled at every span boundary and a host
// profiler mirrored onto the "host" track.
type wiredSession struct {
	session *obs.Session
	prof    *profile.Profiler
	sampler *obs.CounterSampler
}

// newWiredSession builds the instrumented session both subcommands use.
func newWiredSession(name string) (*wiredSession, error) {
	session := obs.NewSession(name)

	// Runtime counters, sampled at every span boundary so allocation and
	// GC inflections line up with the spans that caused them.
	set := counters.NewEventSet(counters.RuntimeBackend{})
	if err := set.Add(counters.Allocs, counters.AllocBytes,
		counters.GCCycles, counters.Goroutines); err != nil {
		return nil, err
	}
	sampler, err := obs.NewCounterSampler(session, "runtime/", set)
	if err != nil {
		return nil, err
	}

	// Host profiler: regions mirror onto the "host" track (session and
	// flight ring both, when the black box is enabled) and trigger a
	// counter sample on every exit. A nil Active() recorder no-ops, so
	// the tee costs one atomic load when flight is off.
	prof := profile.New()
	mirror := session.Track("host").ProfileListener()
	blackBox := flight.SpanListener(flight.Active(), "host")
	prof.Listen(func(path []string, start, end time.Time) {
		mirror(path, start, end)
		blackBox(path, start, end)
		_ = sampler.Sample()
	})

	// Scheduler tasks land on per-executor "sched" tracks, so the
	// parallel variants show their range decomposition next to the host
	// spans — teed through the flight ring on the way. The observer
	// follows the newest session (serve wires one per iteration); serve
	// detaches it at stack close.
	sched.Observe(flight.NewSchedTee(flight.Active(), obs.NewSchedObserver(session)))
	return &wiredSession{session: session, prof: prof, sampler: sampler}, nil
}

// do runs f as a profiled region, propagating f's error ahead of the
// profiler's own bookkeeping errors.
func do(prof *profile.Profiler, name string, f func() error) error {
	var ferr error
	if err := prof.Do(name, func() { ferr = f() }); ferr != nil {
		return ferr
	} else if err != nil {
		return err
	}
	return nil
}

// runWorkload executes the instrumented phases against ws: every
// telemetry producer in the repo publishes along the way.
func runWorkload(ws *wiredSession, app *perfeng.Application, ranks, n int) error {
	prof := ws.prof
	prof.Enter(app.Name)

	// Phase 1: the optimization ladder, every variant one region.
	// Baseline first, then candidates, without materializing a combined
	// slice — runWorkload runs per serve iteration.
	if err := prof.Do("variant/"+app.Baseline.Name, app.Baseline.Run); err != nil {
		return err
	}
	for _, v := range app.Candidates {
		if err := prof.Do("variant/"+v.Name, v.Run); err != nil {
			return err
		}
	}

	// Phase 2: a measured pass over the baseline, so the measurement
	// runner itself shows up — both as a region and in live telemetry.
	if err := do(prof, "runner/baseline", func() error {
		runner := metrics.NewRunner(metrics.QuickConfig())
		runner.Measure(app.Name+"-baseline", app.FLOPs, app.Bytes, app.Baseline.Run)
		return nil
	}); err != nil {
		return err
	}

	// Phase 3: scale-out. A deliberately imbalanced compute+allreduce
	// round per rank, so the rank tracks carry wait states worth seeing.
	if err := do(prof, "cluster/allreduce", func() error {
		return clusterPhase(ws.session, ranks, n)
	}); err != nil {
		return err
	}

	// Phase 4: offload. The same data volume through the SIMT device,
	// with per-block spans on the SM tracks and occupancy metadata.
	if err := do(prof, "gpu/saxpy", func() error {
		return gpuPhase(ws.session, n)
	}); err != nil {
		return err
	}

	// Phase 5: a cache-simulated triad sweep, published at the phase
	// boundary (the simulator's hot loop stays uninstrumented).
	if err := do(prof, "simulator/triad", func() error {
		return cacheSimPhase(n)
	}); err != nil {
		return err
	}

	// Phase 6: the queuing validator — one M/M/c run.
	if err := do(prof, "queuing/mmc", func() error {
		_, err := queuing.Simulate(queuing.Exponential(1.0), queuing.Exponential(1.25),
			2, 2000, 200, 42)
		return err
	}); err != nil {
		return err
	}

	return prof.Exit(app.Name)
}

// clusterPhase runs one compute+allreduce round on a traced world and
// imports the per-rank event streams into the session.
func clusterPhase(session *obs.Session, ranks, n int) error {
	world, err := cluster.NewWorld(ranks, 0)
	if err != nil {
		return err
	}
	tracer := world.EnableTracing()
	tracer.Listen(flight.ClusterListener(flight.Active(), ranks))
	err = world.Run(func(c *cluster.Comm) error {
		// Local compute: rank 0 does extra passes (an imbalanced
		// partition), which surfaces as late-sender wait time downstream.
		start := time.Now()
		passes := 1
		if c.Rank() == 0 {
			passes = 4
		}
		var local float64
		for p := 0; p < passes; p++ {
			for i := 0; i < n*n; i++ {
				local += float64(i%7) * 0.5
			}
		}
		tracer.RecordCompute(c.Rank(), start, time.Now())
		if err := c.Barrier(); err != nil {
			return err
		}
		_, err := c.AllreduceScalar(local, cluster.SumOp)
		return err
	})
	if err != nil {
		return err
	}
	obs.AddClusterTrace(session, tracer)
	return nil
}

// gpuPhase launches a SAXPY-class kernel on the modeled device with the
// session's GPU recorder attached.
func gpuPhase(session *obs.Session, n int) error {
	model := machine.DAS5TitanX()
	dev, err := gpu.NewDevice(model)
	if err != nil {
		return err
	}
	dev.Recorder = flight.NewGPUTee(flight.Active(), obs.NewGPURecorder(session, model))
	elems := n * n
	const block = 256
	blocks := (elems + block - 1) / block
	x := make([]float64, elems)
	y := make([]float64, elems)
	for i := range x {
		x[i] = float64(i)
	}
	return dev.LaunchNamed("saxpy",
		gpu.Dim3{X: blocks, Y: 1, Z: 1}, gpu.Dim3{X: block, Y: 1, Z: 1}, 0,
		func(b, tid gpu.Dim3, _ []float64) {
			i := b.X*block + tid.X
			if i < elems {
				y[i] = 2.0*x[i] + y[i]
			}
		})
}

// cacheSimPhase replays a triad access stream through the DAS-5 cache
// model and publishes the hit/miss telemetry at the end — the
// simulator's safe-point publication contract.
func cacheSimPhase(n int) error {
	hier, err := simulator.FromCPU(machine.DAS5CPU())
	if err != nil {
		return err
	}
	elems := n * n
	const eb = 8 // float64
	aBase, bBase, cBase := uint64(0), uint64(elems*eb), uint64(2*elems*eb)
	for i := 0; i < elems; i++ {
		off := uint64(i * eb)
		hier.Load(bBase+off, eb)
		hier.Load(cBase+off, eb)
		hier.Store(aBase+off, eb)
	}
	hier.PublishTelemetry()
	return nil
}
