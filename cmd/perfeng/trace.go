// The trace subcommand: run the instrumented workload once — profiler
// regions, cluster ranks, runtime counters and the SIMT device all
// recording into one obs session — and export the timeline as Chrome
// Trace Event JSON plus folded stacks. The session construction and
// workload phases are shared with `perfeng serve` (wiring.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"perfeng"
)

func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		appName    = fs.String("kernel", "matmul", "application kernel to trace (see perfeng -list)")
		n          = fs.Int("n", 256, "problem size")
		workers    = fs.Int("workers", 4, "parallel workers for the parallel variants")
		ranks      = fs.Int("ranks", 4, "cluster ranks for the scale-out phase")
		tracePath  = fs.String("trace", "trace.json", "Chrome Trace Event JSON output (open in Perfetto)")
		foldedPath = fs.String("folded", "profile.folded", "folded-stack output (flamegraph.pl / speedscope)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: perfeng trace [flags]")
		fmt.Fprintln(os.Stderr, "runs one kernel under full instrumentation and writes the unified timeline:")
		fmt.Fprintln(os.Stderr, "host profiler spans, per-rank cluster tracks, runtime counter series and")
		fmt.Fprintln(os.Stderr, "GPU device/SM tracks, exported as Chrome trace JSON + folded stacks.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	app, err := perfeng.BuiltinApplication(*appName, *n, *workers)
	if err != nil {
		fatal(err)
	}

	ws := newWiredSession("perfeng trace "+app.Name, nil)

	// SIGINT flush: an interrupted run still writes a valid (partial)
	// trace before exiting. Session exports take the session lock, so
	// flushing here is safe against the workload mid-span.
	files := traceFiles{trace: *tracePath, folded: *foldedPath}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "perfeng trace: interrupted, flushing partial trace")
		files.write(ws.session, "perfeng trace", os.Stderr)
		os.Exit(130)
	}()

	if err := runWorkload(ws, app, *ranks, *n); err != nil {
		fatal(err)
	}
	signal.Stop(sigc)

	if !files.write(ws.session, "perfeng trace", io.Discard) {
		os.Exit(1)
	}

	fmt.Print(ws.session.FlatReport())
	fmt.Printf("\nwrote %s (open at https://ui.perfetto.dev or chrome://tracing)\n", *tracePath)
	fmt.Printf("wrote %s (render with flamegraph.pl or https://speedscope.app)\n", *foldedPath)
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
