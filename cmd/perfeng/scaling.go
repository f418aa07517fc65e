// The scaling subcommand: a CI smoke test that the shared work-stealing
// runtime actually scales. It times a compute-bound kernel (parallel
// matmul) and a memory/merge-bound one (privatized histogram) against
// their sequential ladders and checks the speedup at the machine's
// GOMAXPROCS. On boxes too small for parallel speedup to be expected
// (below -min-procs) it skips cleanly, so laptops and 1-core containers
// stay green while CI runners enforce the bar.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"perfeng/internal/flight"
	"perfeng/internal/kernels"
	"perfeng/internal/sched"
)

func runScaling(args []string) {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	var (
		n        = fs.Int("n", 512, "matmul problem size")
		samples  = fs.Int("samples", 8<<20, "histogram sample count")
		reps     = fs.Int("reps", 3, "repetitions per variant (best time wins)")
		minProcs = fs.Int("min-procs", 4, "skip with exit 0 below this GOMAXPROCS")
		github   = fs.Bool("github", false, "emit GitHub Actions ::error/::warning annotations")
		dumpDir  = fs.String("flight-dump", "", "on failure, drain the flight recorder into this directory (trace.json + folded stacks)")
	)
	thresholds := registerThresholdFlags(fs, 1.5, 1.0)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: perfeng scaling [flags]")
		fmt.Fprintln(os.Stderr, "smoke-tests parallel speedup of the shared scheduler: parallel matmul and")
		fmt.Fprintln(os.Stderr, "privatized histogram vs their sequential variants, best-of-reps timing.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	procs := runtime.GOMAXPROCS(0)
	if procs < *minProcs {
		fmt.Printf("perfeng scaling: GOMAXPROCS=%d < %d — skipping, parallel speedup not expected here\n",
			procs, *minProcs)
		return
	}

	// Black-box the smoke run: when -flight-dump is set, every executed
	// sched range is captured, so a failing run ships its own evidence
	// (CI uploads the dump as an artifact).
	var rec *flight.Recorder
	if *dumpDir != "" {
		rec = flight.NewRecorder(0)
		flight.Enable(rec)
		sched.Observe(flight.NewSchedTee(rec, nil))
		defer func() {
			sched.Observe(nil)
			flight.Enable(nil)
		}()
	}

	cases := scalingCases(*n, *samples)
	fmt.Printf("perfeng scaling: GOMAXPROCS=%d, sched workers=%d, best of %d reps\n",
		procs, sched.Workers(), *reps)

	failed := false
	for _, c := range cases {
		seq := bestOf(*reps, c.seq)
		par := bestOf(*reps, c.par)
		speedup := seq.Seconds() / par.Seconds()
		verdict := thresholds.verdict(speedup)
		if verdict == "FAIL" {
			failed = true
		}
		fmt.Printf("  %-12s seq %10v  par %10v  speedup %.2fx  [%s]\n",
			c.name, seq.Round(time.Microsecond), par.Round(time.Microsecond), speedup, verdict)
		if *github {
			thresholds.annotate(verdict, "scaling "+c.name,
				"parallel "+c.name+" at GOMAXPROCS="+strconv.Itoa(procs)+":", speedup)
		}
	}
	if failed {
		if rec != nil {
			// The dump ships its own diagnosis: which category of wait
			// ate the speedup, straight from the same black box.
			s := rec.BuildSession("perfeng scaling flight dump")
			dumpFiles(*dumpDir).write(s, "perfeng scaling", os.Stderr)
		}
		fmt.Fprintln(os.Stderr, "perfeng scaling: FAIL — parallel slower than sequential")
		os.Exit(1)
	}
}

// scalingCase pairs a sequential kernel with its scheduler-parallel
// variant (workers <= 0: stealing over the whole pool).
type scalingCase struct {
	name string
	seq  func()
	par  func()
}

func scalingCases(n, samples int) []scalingCase {
	a, b := kernels.RandomDense(n, 1), kernels.RandomDense(n, 2)
	cSeq, cPar := kernels.NewDense(n), kernels.NewDense(n)

	data := kernels.UniformSamples(samples, 3)
	const bins = 1024
	hSeq, hPar := make([]int64, bins), make([]int64, bins)

	return []scalingCase{
		{
			name: "matmul",
			seq:  func() { kernels.MatMulIKJ(a, b, cSeq) },
			par:  func() { kernels.MatMulParallel(a, b, cPar, 0) },
		},
		{
			name: "histogram",
			seq: func() {
				clearCounts(hSeq)
				kernels.HistogramSeq(data, hSeq)
			},
			par: func() {
				clearCounts(hPar)
				kernels.HistogramPrivate(data, hPar, 0)
			},
		},
	}
}

func clearCounts(c []int64) {
	for i := range c {
		c[i] = 0
	}
}

// bestOf runs f reps times and returns the fastest wall time — the
// standard noise-rejection protocol for a smoke check (minimum of a
// shifted distribution estimates the noise-free cost).
func bestOf(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
