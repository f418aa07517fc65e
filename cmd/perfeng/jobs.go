// Job-service wiring shared by `perfeng serve` (which mounts the
// /v1 API next to /metrics) and `perfeng loadtest` (which can spin an
// in-process service to hammer). The resolver maps job specs onto the
// built-in course kernels, reusing constructed applications across
// jobs with the same shape so a load test measures kernel execution,
// not per-request matrix allocation.
package main

import (
	"fmt"
	"sync"
	"time"

	"perfeng"
	"perfeng/internal/serviced"
	"perfeng/internal/telemetry"
)

// jobMaxN caps the problem size a remote job may request: the service
// is a shared endpoint and one tenant must not be able to park an
// executor on an hour-long kernel (admission sizes for seconds-scale
// service times).
const jobMaxN = 1024

// builtinResolver returns a serviced.Resolver over the built-in
// kernels. An application's buffers are not safe for concurrent runs,
// so each (kernel, n, workers) shape gets a sync.Pool of constructed
// instances: concurrent executors draw distinct instances (at most c
// live per shape), and construction cost is amortized across jobs
// instead of paid per request. The runner executes the application's
// most optimized candidate variant (the last one), falling back to
// the baseline for single-variant apps.
func builtinResolver() serviced.Resolver {
	type shape struct {
		kernel     string
		n, workers int
	}
	var (
		mu    sync.Mutex
		pools = make(map[shape]*sync.Pool)
	)
	known := make(map[string]bool)
	for _, name := range perfeng.BuiltinApplications() {
		known[name] = true
	}
	return func(spec serviced.JobSpec) (serviced.Runner, error) {
		switch spec.Policy {
		case "", "static", "guided", "stealing":
		default:
			return nil, fmt.Errorf("unknown sched policy %q", spec.Policy)
		}
		if !known[spec.Kernel] {
			return nil, fmt.Errorf("unknown kernel %q", spec.Kernel)
		}
		n := spec.N
		if n <= 0 {
			n = 64
		}
		if n > jobMaxN {
			return nil, fmt.Errorf("n=%d exceeds the service cap of %d", spec.N, jobMaxN)
		}
		workers := spec.Workers
		if workers < 0 || workers > 64 {
			return nil, fmt.Errorf("workers=%d out of range [0, 64]", spec.Workers)
		}
		key := shape{spec.Kernel, n, workers}
		mu.Lock()
		pool, ok := pools[key]
		if !ok {
			pool = &sync.Pool{}
			pools[key] = pool
		}
		mu.Unlock()
		return func(rep int) error {
			run, ok := pool.Get().(func())
			if !ok {
				app, err := perfeng.BuiltinApplication(key.kernel, key.n, key.workers)
				if err != nil {
					return err
				}
				v := app.Baseline
				if len(app.Candidates) > 0 {
					v = app.Candidates[len(app.Candidates)-1]
				}
				run = v.Run
			}
			run()
			pool.Put(run)
			return nil
		}, nil
	}
}

// newJobService builds the serviced.Service both subcommands share.
func newJobService(reg *telemetry.Registry, executors int, targetP99 time.Duration) (*serviced.Service, error) {
	return serviced.New(serviced.Config{
		Resolve: builtinResolver(),
		Admission: serviced.AdmissionConfig{
			Servers:   executors,
			TargetP99: targetP99,
			// Seeded pessimistically; admission re-sizes from the mean of
			// the first 256 completions of real traffic.
			InitialMeanService: 5 * time.Millisecond,
		},
		Registry: reg,
	})
}
