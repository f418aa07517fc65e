// The flight subcommand: run the instrumented workload with the black
// box armed, evaluate SLO objectives against what was measured, and
// drain the flight ring to disk — the on-demand counterpart of serve's
// violation-triggered dump, and the quickest way to see what the
// recorder captures:
//
//	perfeng flight -kernel matmul -n 128 -iterations 3 \
//	    -slo 'perfeng_flight_iteration_seconds.p99<2s' \
//	    -trace flight.trace.json -folded flight.profile.folded
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"perfeng"
	"perfeng/internal/flight"
)

func runFlight(args []string) {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	var (
		appName    = fs.String("kernel", "matmul", "application kernel to run (see perfeng -list)")
		n          = fs.Int("n", 128, "problem size")
		workers    = fs.Int("workers", 4, "parallel workers for the parallel variants")
		ranks      = fs.Int("ranks", 4, "cluster ranks for the scale-out phase")
		iterations = fs.Int("iterations", 1, "workload iterations to capture")
		capacity   = fs.Int("capacity", 0, "flight ring capacity in records (0 = default)")
		slos       = fs.String("slo", "", "comma-separated SLO objectives to evaluate after the run")
		tracePath  = fs.String("trace", "flight.trace.json", "write the drained black box as Chrome-trace JSON here")
		foldedPath = fs.String("folded", "", "write the drained black box as folded stacks here")
		failOnSLO  = fs.Bool("fail", false, "exit 1 when an SLO objective is violated")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: perfeng flight [flags]")
		fmt.Fprintln(os.Stderr, "runs the instrumented workload with the flight recorder armed, checks")
		fmt.Fprintln(os.Stderr, "-slo objectives, and drains the black box into trace files.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	app, err := perfeng.BuiltinApplication(*appName, *n, *workers)
	if err != nil {
		fatal(err)
	}
	violations, err := captureFlight(app, *ranks, *n, *iterations,
		stackConfig{cmd: "flight", interval: 100 * time.Millisecond, capacity: *capacity, slos: *slos},
		traceFiles{trace: *tracePath, folded: *foldedPath})
	if err != nil {
		fatal(err)
	}
	if *failOnSLO && len(violations) > 0 {
		os.Exit(1)
	}
}

// captureFlight runs the workload iterations times on a run stack
// whose HTTP server never starts, checks the SLO objectives once (each
// violation is reported on stderr) and drains the black box into
// files. The dump carries the first violation's objective on the "slo"
// track, linked to its exemplar interval.
func captureFlight(app *perfeng.Application, ranks, n, iterations int, cfg stackConfig, files traceFiles) ([]flight.Violation, error) {
	st, err := newRunStack(cfg)
	if err != nil {
		return nil, err
	}
	defer st.close(context.Background())
	st.collector.Start()

	for i := 1; i <= iterations; i++ {
		dur, err := st.iterate("perfeng flight "+app.Name+" #"+strconv.Itoa(i), app, ranks, n)
		if err != nil {
			return nil, err
		}
		fmt.Printf("perfeng flight: iteration %d in %v\n", i, dur.Round(time.Millisecond))
	}
	st.collector.SampleOnce() // final pass, so derived gauges reflect the run

	violations := st.engine.Check()
	var firstV *flight.Violation
	if len(violations) > 0 {
		firstV = &violations[0]
	}
	dump := st.engine.DumpSession("perfeng flight "+app.Name, firstV)
	fmt.Printf("perfeng flight: black box holds %d records (%d captured in total)\n", st.rec.Len(), st.rec.Total())
	if !files.write(dump, "perfeng flight", os.Stdout) {
		return violations, errors.New("flight dump incomplete")
	}
	return violations, nil
}
