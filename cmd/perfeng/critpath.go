// The critpath subcommand: causal analysis of a recorded trace — or of
// a fresh instrumented run — through the critical-path engine. It
// reconstructs the dependency DAG (span nesting, sched fork/join,
// cluster send→recv and collectives, GPU launches), walks the critical
// path, attributes wall time to compute vs wait states, and simulates
// COZ-style what-if speedups:
//
//	perfeng trace -kernel matmul -trace trace.json
//	perfeng critpath -input trace.json
//	perfeng critpath -kernel matmul -n 192 -hints hints.json
//	perfeng tune -smoke -hints hints.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"perfeng"
	"perfeng/internal/critpath"
	"perfeng/internal/obs"
)

func runCritpath(args []string) {
	fs := flag.NewFlagSet("critpath", flag.ExitOnError)
	var (
		input     = fs.String("input", "", "analyze this Chrome-trace JSON (from perfeng trace/serve/flight) instead of running a workload")
		appName   = fs.String("kernel", "matmul", "application kernel to run when no -input is given (see perfeng -list)")
		n         = fs.Int("n", 256, "problem size")
		workers   = fs.Int("workers", 4, "parallel workers for the parallel variants")
		ranks     = fs.Int("ranks", 4, "cluster ranks for the scale-out phase")
		top       = fs.Int("top", 8, "rank this many top critical spans / what-if targets")
		jsonPath  = fs.String("json", "", "write the machine-readable report here")
		mdPath    = fs.String("md", "", "write the markdown report here (CI step summaries)")
		hintsPath = fs.String("hints", "", "write ranked optimization hints here (consumed by perfeng tune -hints)")
		github    = fs.Bool("github", false, "emit a GitHub Actions ::notice for the top what-if target")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: perfeng critpath [flags]")
		fmt.Fprintln(os.Stderr, "builds the causal dependency DAG of a trace (span nesting, sched fork/join,")
		fmt.Fprintln(os.Stderr, "send→recv, collectives, GPU launches), extracts the critical path, attributes")
		fmt.Fprintln(os.Stderr, "wall time to compute vs wait states, and predicts what-if virtual speedups.")
		fmt.Fprintln(os.Stderr, "Reads -input trace JSON, or runs the instrumented workload like perfeng trace.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	var s *obs.Session
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		s, err = obs.ReadChromeTrace(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *input, err))
		}
	} else {
		app, err := perfeng.BuiltinApplication(*appName, *n, *workers)
		if err != nil {
			fatal(err)
		}
		ws := newWiredSession("perfeng critpath "+app.Name, nil)
		if err := runWorkload(ws, app, *ranks, *n); err != nil {
			fatal(err)
		}
		s = ws.session
	}

	// Analyze errors (a cyclic or non-tiling DAG) are exit 1: CI uses
	// this as the malformed-trace tripwire.
	rep, err := critpath.Analyze(s, critpath.Options{TopSpans: *top})
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Text())

	if *jsonPath != "" {
		if err := writeFile(*jsonPath, rep.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *mdPath != "" {
		if err := writeFile(*mdPath, func(w io.Writer) error {
			_, err := io.WriteString(w, rep.Markdown())
			return err
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *mdPath)
	}
	hints := rep.Hints()
	if *hintsPath != "" {
		if err := writeFile(*hintsPath, func(w io.Writer) error {
			return critpath.WriteHints(w, hints)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d ranked targets)\n", *hintsPath, len(hints))
	}
	if *github && len(hints) > 0 {
		h := hints[0]
		fmt.Printf("::notice title=critpath top target::%s (%s) holds %.1f%% of the critical path; predicted end-to-end gain %.1f%% at the most aggressive simulated speedup\n",
			h.Target, h.Subsystem, 100*h.Share, h.Gain)
	}
}
