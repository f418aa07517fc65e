// The microbench subcommand: run the calibration microbenchmark battery
// (STREAM, pointer-chase latency, peak-FLOPS ILP sweep) and print the
// calibration table plus the fitted machine model: the Assignment 2
// calibration workflow as a tool.
//
//	perfeng microbench            # full battery
//	perfeng microbench -quick     # shrunk probes
//	perfeng microbench -ilp       # also print the accumulator-count sweep
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"perfeng/internal/machine"
	"perfeng/internal/microbench"
)

func writeMicrobench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("microbench", flag.ExitOnError)
	var (
		quick = fs.Bool("quick", false, "shrink every probe")
		ilp   = fs.Bool("ilp", false, "print the ILP (accumulator) sweep")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	cal, err := microbench.Calibrate(microbench.CalibrationConfig{Quick: *quick})
	if err != nil {
		return err
	}
	fmt.Fprint(w, cal.String())

	if *ilp {
		iters := 1 << 24
		if *quick {
			iters = 1 << 18
		}
		fmt.Fprintln(w, "\nILP sweep (independent multiply-add chains):")
		for _, r := range microbench.ILPSweep(iters) {
			fmt.Fprintf(w, "  %d chains: %7.2f GFLOP/s\n", r.Accumulators, r.GFLOPS)
		}
	}

	fitted := cal.FitCPU(machine.GenericLaptop())
	fmt.Fprintf(w, "\nfitted model: %s\n", fitted.Name)
	fmt.Fprintf(w, "  peak %.1f GFLOP/s (%.1f scalar), %.1f GB/s, ridge %.2f FLOP/B\n",
		fitted.PeakGFLOPS(), fitted.ScalarPeakGFLOPS(),
		fitted.MemBandwidthGBs(), fitted.RidgeAI())
	return nil
}
