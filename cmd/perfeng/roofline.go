// The roofline subcommand: print a machine's Roofline model, optionally
// cache-aware, optionally with a built-in kernel's variants measured and
// placed on it, and optionally written out as SVG: the Assignment 1
// workflow as a tool.
//
//	perfeng roofline -machine das5
//	perfeng roofline -machine laptop -cache-aware
//	perfeng roofline -app matmul -n 256 -svg roofline.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"perfeng"
	"perfeng/internal/metrics"
	"perfeng/internal/roofline"
)

func writeRoofline(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("roofline", flag.ExitOnError)
	var (
		machineName = fs.String("machine", "laptop", "machine model: laptop | das5 | das5gpu | calibrate")
		cacheAware  = fs.Bool("cache-aware", false, "add per-cache-level bandwidth ceilings")
		appName     = fs.String("app", "", "optional: measure this built-in app's variants and place them")
		n           = fs.Int("n", 256, "problem size for -app")
		workers     = fs.Int("workers", 0, "workers for -app parallel variants")
		svgPath     = fs.String("svg", "", "write an SVG plot to this path")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	var model *roofline.Model
	if *machineName == "das5gpu" {
		model = roofline.FromGPU(perfeng.DAS5GPU())
	} else {
		// calibrate uses the quick probes, like the -app measurements.
		cpu, err := pickMachine(*machineName, true)
		if err != nil {
			return err
		}
		if *cacheAware {
			model = roofline.CacheAwareFromCPU(cpu)
		} else {
			model = roofline.FromCPU(cpu)
		}
	}

	var points []roofline.Point
	if *appName != "" {
		app, err := perfeng.BuiltinApplication(*appName, *n, *workers)
		if err != nil {
			return err
		}
		ops := make([]metrics.Op, 0, 1+len(app.Candidates))
		for _, v := range append([]perfeng.Variant{app.Baseline}, app.Candidates...) {
			ops = append(ops, metrics.Op{Name: v.Name, FLOPs: app.FLOPs, Bytes: app.Bytes, Run: v.Run})
		}
		for _, m := range metrics.NewRunner(metrics.QuickConfig()).MeasureAll(ops) {
			points = append(points, roofline.PointFromMeasurement(m))
		}
	}

	fmt.Fprint(w, model.Report(points))
	fmt.Fprintln(w)
	fmt.Fprint(w, model.ASCIIPlot(points, 72, 20))

	if *svgPath != "" {
		if err := writeFile(*svgPath, func(f io.Writer) error {
			_, err := io.WriteString(f, model.SVGPlot(points, 640, 420))
			return err
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *svgPath)
	}
	return nil
}
