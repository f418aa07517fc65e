// The serve subcommand: run the instrumented workload in a loop behind
// a live monitoring endpoint. The run stack (stack.go) supplies the
// registry, flight recorder and SLO engine; the HTTP server exposes the
// registry as OpenMetrics next to pprof, the current obs session's
// timeline and the job API. On an SLO violation (or on demand via
// /debug/flight) the recent past drains to a valid trace. SIGINT shuts
// down gracefully and, when asked, flushes the last session as a valid
// trace.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"perfeng"
	"perfeng/internal/serviced"
)

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address for the monitoring endpoint")
		loop       = fs.Bool("loop", true, "loop the -kernel workload; -loop=false serves jobs only (perfengd mode)")
		jobs       = fs.Bool("jobs", true, "mount the multi-tenant job API at /v1/jobs and /v1/stats")
		jobsExecs  = fs.Int("jobs-executors", 2, "executor goroutines for the job service (the c of its M/M/c sizing)")
		jobsTarget = fs.Duration("jobs-target-p99", 2*time.Second, "p99 sojourn objective the job admission control is sized for")
		appName    = fs.String("kernel", "matmul", "application kernel to loop (see perfeng -list)")
		n          = fs.Int("n", 256, "problem size")
		workers    = fs.Int("workers", 4, "parallel workers for the parallel variants")
		ranks      = fs.Int("ranks", 4, "cluster ranks for the scale-out phase")
		interval   = fs.Duration("interval", time.Second, "runtime collector sampling interval")
		iterations = fs.Int("iterations", 0, "stop after this many workload iterations (0 = run until SIGINT)")
		pause      = fs.Duration("pause", 200*time.Millisecond, "pause between workload iterations")
		tracePath  = fs.String("trace", "", "on shutdown, write the last session's Chrome trace here")
		foldedPath = fs.String("folded", "", "on shutdown, write the last session's folded stacks here")
		slos       = fs.String("slo", "", "comma-separated SLO objectives, e.g. 'perfeng_serve_iteration_seconds.p99<2s,go_gc_pause_burn_ratio.max<0.05'")
		flightDump = fs.String("flight-dump", "", "directory receiving flight.trace.json + flight.profile.folded on SLO violation")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: perfeng serve [flags]")
		fmt.Fprintln(os.Stderr, "loops one kernel under full instrumentation behind a live monitoring")
		fmt.Fprintln(os.Stderr, "endpoint: /metrics (OpenMetrics), /healthz, /debug/pprof/, the current")
		fmt.Fprintln(os.Stderr, "session as /trace.json + /profile.folded, and the flight recorder's")
		fmt.Fprintln(os.Stderr, "black box as /debug/flight (+ .folded). -slo objectives are watched in")
		fmt.Fprintln(os.Stderr, "the background; violations dump the black box. With -jobs (default) the")
		fmt.Fprintln(os.Stderr, "multi-tenant job API is mounted at /v1/jobs: POST a spec, stream SSE")
		fmt.Fprintln(os.Stderr, "progress; admission control is sized from the M/M/c model against")
		fmt.Fprintln(os.Stderr, "-jobs-target-p99. -loop=false runs as a pure job daemon (perfengd).")
		fmt.Fprintln(os.Stderr, "Ctrl-C stops cleanly.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	// The kernel is built only when the loop will run it: a pure job
	// daemon never touches it.
	var app *perfeng.Application
	if *loop {
		var err error
		if app, err = perfeng.BuiltinApplication(*appName, *n, *workers); err != nil {
			fatal(err)
		}
	}

	st, err := newRunStack(stackConfig{
		cmd: "serve", addr: *addr, interval: *interval, slos: *slos, dumpDir: *flightDump,
	})
	if err != nil {
		fatal(err)
	}
	// The job service registers its routes before Start, like the
	// /debug/flight handlers; closing it (below) drains the executors
	// before the telemetry producers detach.
	var svc *serviced.Service
	if *jobs {
		svc, err = newJobService(st.reg, *jobsExecs, *jobsTarget)
		if err != nil {
			fatal(err)
		}
		svc.Attach(st.server)
	}
	st.collector.Start()
	st.engine.Start(*interval)
	bound, err := st.server.Start()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("perfeng serve: monitoring on http://%s/ (metrics, healthz, trace.json, profile.folded, debug/pprof, debug/flight)\n", bound)
	if svc != nil {
		s := svc.Admission().Sizing()
		fmt.Printf("perfeng serve: job API on http://%s/v1/jobs — %d executors, admission sized for p99<%v (lambda=%.1f/s, queue<=%d)\n",
			bound, *jobsExecs, *jobsTarget, s.Lambda, s.QueueDepth)
	}
	if *loop {
		fmt.Printf("perfeng serve: looping kernel %q n=%d ranks=%d; Ctrl-C to stop\n", app.Name, *n, *ranks)
	} else {
		fmt.Println("perfeng serve: workload loop disabled (-loop=false); serving jobs only")
	}
	for _, o := range st.engine.Objectives() {
		fmt.Printf("perfeng serve: watching SLO %s\n", o.Raw)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	loopDone := make(chan error, 1)
	runLoop := func() {
		namePrefix := "perfeng serve " + app.Name + " #"
		for i := 1; *iterations == 0 || i <= *iterations; i++ {
			if ctx.Err() != nil {
				break
			}
			dur, err := st.iterate(namePrefix+strconv.Itoa(i), app, *ranks, *n)
			if err != nil {
				loopDone <- err
				return
			}
			p50, p95, p99 := st.iterQuantiles()
			fmt.Printf("perfeng serve: iteration %d in %v; iteration_seconds p50=%v p95=%v p99=%v\n",
				i, dur.Round(time.Millisecond),
				p50.Round(time.Millisecond), p95.Round(time.Millisecond), p99.Round(time.Millisecond))
			select {
			case <-ctx.Done():
			case <-time.After(*pause):
			}
		}
		loopDone <- nil
	}
	if *loop {
		go runLoop()
	}

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "perfeng serve: signal received, shutting down")
	case err := <-loopDone:
		if err != nil {
			fatal(err)
		}
	}
	stop()
	if svc != nil {
		svc.Close()
	}

	// Flush the current session before the stack goes away; exports take
	// the session lock, so a workload iteration still finishing is fine.
	if cur := st.sink.Current(); cur != nil {
		traceFiles{trace: *tracePath, folded: *foldedPath}.write(cur, "perfeng serve", os.Stdout)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := st.close(shutdownCtx); err != nil {
		fatal(err)
	}
}
