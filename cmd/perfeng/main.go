// Command perfeng runs the full seven-stage performance-engineering
// process on one of the built-in course kernels and prints the stage-7
// report. The trace subcommand instead runs a kernel under the unified
// observability layer and exports the timeline for Perfetto/speedscope.
//
// Usage:
//
//	perfeng -app matmul -n 256 -workers 4 -machine laptop -speedup 2
//	perfeng -app spmv -n 4000 -runtime 0.01
//	perfeng -list
//	perfeng trace -kernel matmul -n 256 -trace trace.json -folded profile.folded
//	perfeng serve -addr 127.0.0.1:8080 -kernel matmul -n 256
//	perfeng benchgate record
//	perfeng benchgate gate -baseline BENCH_1.json -github
//	perfeng vet ./...
//	perfeng scaling -github
//	perfeng flight -kernel matmul -slo 'perfeng_flight_iteration_seconds.p99<2s'
//	perfeng tune -smoke -github
//	perfeng critpath -input trace.json -hints hints.json
//	perfeng serve -addr 127.0.0.1:8091 -loop=false       # perfengd: job daemon
//	perfeng loadtest -clients 500 -duration 10s -fail-p99 2s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"perfeng"
	"perfeng/internal/metrics"
)

// command is one perfeng subcommand: the usage text and the dispatcher
// are both generated from the commands table.
type command struct {
	name, args, summary string
	run                 func(args []string)
}

var commands = []command{
	{"trace", "[flags]", "trace a kernel into Chrome-trace + folded stacks", runTrace},
	{"serve", "[flags]", "loop a kernel behind live monitoring and the job API", runServe},
	{"benchgate", "<mode>", "record/compare/gate benchmark baselines", runBenchgate},
	{"vet", "[packages]", "statically check for performance antipatterns", runVet},
	{"scaling", "[flags]", "smoke-test parallel speedup of the scheduler", runScaling},
	{"flight", "[flags]", "capture a run in the flight recorder, check SLOs", runFlight},
	{"tune", "[flags]", "search kernel configs, persist winners to TUNED.json", runTune},
	{"critpath", "[flags]", "critical-path analysis of a trace, what-if speedups", runCritpath},
	{"loadtest", "[flags]", "drive the job service with closed-loop clients", runLoadtest},
}

// writeUsage prints the command synopsis, one line per table entry.
func writeUsage(w io.Writer) {
	fmt.Fprintf(w, "usage: perfeng %-17s %s\n", "[flags]", "run the seven-stage process on a kernel")
	for _, c := range commands {
		fmt.Fprintf(w, "       perfeng %-17s %s\n", c.name+" "+c.args, c.summary)
	}
	fmt.Fprintln(w, "run 'perfeng <command> -help' for a command's flags")
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stderr))
}

// dispatch runs the subcommand named by args[0], or the seven-stage
// process when args is empty or starts with a flag. An unknown
// subcommand prints the usage to stderr and returns exit status 2.
func dispatch(args []string, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		runEngagement(args)
		return 0
	}
	for _, c := range commands {
		if c.name == args[0] {
			c.run(args[1:])
			return 0
		}
	}
	fmt.Fprintf(stderr, "perfeng: unknown command %q\n", args[0])
	writeUsage(stderr)
	return 2
}

func runEngagement(args []string) {
	fs := flag.NewFlagSet("perfeng", flag.ExitOnError)
	var (
		appName  = fs.String("app", "matmul", "application kernel (see -list)")
		n        = fs.Int("n", 256, "problem size")
		workers  = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		machine  = fs.String("machine", "laptop", "machine model: laptop | das5 | calibrate")
		speedup  = fs.Float64("speedup", 0, "require speedup >= this over the baseline")
		runtime_ = fs.Float64("runtime", 0, "require best runtime <= this many seconds")
		fraction = fs.Float64("fraction", 0, "require achieved/attainable >= this fraction")
		quick    = fs.Bool("quick", false, "fast measurement protocol")
		list     = fs.Bool("list", false, "list built-in applications and exit")
		csvPath  = fs.String("csv", "", "write per-variant measurement summaries to this CSV file")
	)
	fs.Usage = func() {
		writeUsage(os.Stderr)
		fmt.Fprintln(os.Stderr, "flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	if *list {
		fmt.Println(strings.Join(perfeng.BuiltinApplications(), "\n"))
		return
	}

	app, err := perfeng.BuiltinApplication(*appName, *n, *workers)
	if err != nil {
		fatal(err)
	}
	cpu, err := pickMachine(*machine, *quick)
	if err != nil {
		fatal(err)
	}

	req := perfeng.Requirement{Kind: perfeng.SpeedupAtLeast, Target: 2}
	switch {
	case *speedup > 0:
		req = perfeng.Requirement{Kind: perfeng.SpeedupAtLeast, Target: *speedup}
	case *runtime_ > 0:
		req = perfeng.Requirement{Kind: perfeng.RuntimeBelow, Target: *runtime_}
	case *fraction > 0:
		req = perfeng.Requirement{Kind: perfeng.FractionOfRoofline, Target: *fraction}
	}

	var e *perfeng.Engagement
	if *quick {
		e = perfeng.QuickEngagement(app, cpu, req)
	} else {
		e = perfeng.NewEngagement(app, cpu, req)
	}
	out, err := e.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Print(out.Report.String())
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		ms := make([]*metrics.Measurement, 0, len(out.Variants))
		for _, v := range out.Variants {
			ms = append(ms, v.Measurement)
		}
		if err := metrics.WriteCSV(f, ms); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	if !out.Satisfied {
		os.Exit(2)
	}
}

func pickMachine(name string, quick bool) (perfeng.CPU, error) {
	switch name {
	case "laptop":
		return perfeng.GenericLaptop(), nil
	case "das5":
		return perfeng.DAS5CPU(), nil
	case "calibrate":
		fmt.Fprintln(os.Stderr, "calibrating machine model from microbenchmarks...")
		return perfeng.CalibrateMachine(perfeng.GenericLaptop(), quick)
	default:
		return perfeng.CPU{}, fmt.Errorf("unknown machine %q (laptop | das5 | calibrate)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfeng:", err)
	os.Exit(1)
}
