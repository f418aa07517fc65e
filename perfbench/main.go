// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the program as users run it and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) by name
// and unit, then one JSON result line:
//
//	jobs-small   tiny kernels through perfengd: the serving stack dominates
//	jobs-kernel  real kernels through perfengd: kernels and sched dominate
//	engagement   perfeng.QuickEngagement(...).Run() in-process, no HTTP
//
// The serving workloads start the tree's own `perfeng serve -loop=false`
// (built by run.sh), drive it from this process with a seeded open loop
// at a fixed rate and then a closed-loop saturation phase, and validate
// every SSE stream. BENCHMARK.json at the repository root names the
// metrics and their units; this program fills them in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: jobs-small, jobs-kernel or engagement")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, Chrome trace, tiling check")
		perfeng  = flag.String("perfeng", ".bench_build/perfeng", "perfeng binary serving the jobs workloads")
		out      = flag.String("out", ".bench_build", "directory for the Chrome trace of a traced run")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *perfeng, *out, "BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// report collects one run's metrics, checks and counts.
type report struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	values    map[string]float64
	units     map[string]string
	order     []string
	failures  []string // failed output checks
	attempted int
	failed    int
}

func newReport(workload string, seed int64, seconds float64, traced bool) *report {
	return &report{workload: workload, seed: seed, seconds: seconds, traced: traced,
		values: map[string]float64{}, units: map[string]string{}}
}

// set records a metric value.
func (r *report) set(name, unit string, v float64) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = v
	r.units[name] = unit
}

// check records an output check; a false ok fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func run(workload string, seed int64, seconds float64, traced bool, perfengBin, outDir, specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parsing %s: %w", specPath, err)
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (see %s)", workload, specPath)
	}
	if seconds <= 0 {
		return fmt.Errorf("need positive -seconds, have %v", seconds)
	}

	rep := newReport(workload, seed, seconds, traced)
	stamp(rep)
	if w, ok := servingWorkloads[workload]; ok {
		err = runServing(rep, w, perfengBin, outDir)
	} else {
		err = runEngagement(rep, outDir)
	}
	if err != nil {
		return err
	}
	return emit(rep, spec)
}

// stamp prints the protocol and environment every result is read
// against.
func stamp(r *report) {
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g traced=%v\n", r.workload, r.seed, r.seconds, r.traced)
	fmt.Printf("env: nproc=%d generator_gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit())
}

// emit prints every metric BENCHMARK.json names for this kind of run,
// then the JSON result line. Per-layer metrics of layers this workload
// does not exercise read 0 and are listed as such; an end-to-end metric
// the workload failed to measure is an error.
func emit(r *report, spec benchSpec) error {
	want := spec.EndToEnd
	if r.traced {
		want = spec.PerLayer
	}
	metrics := make(map[string]map[string]any, len(want))
	var unexercised []string
	for _, m := range want {
		v, ok := r.values[m.Name]
		if ok && r.units[m.Name] != m.Unit {
			return fmt.Errorf("metric %s measured in %s but declared in %s", m.Name, r.units[m.Name], m.Unit)
		}
		if !ok {
			if !r.traced {
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			unexercised = append(unexercised, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	fmt.Println("metrics:")
	for _, name := range r.order {
		fmt.Printf("  %-34s %14.6g %s\n", name, r.values[name], r.units[name])
	}
	if len(unexercised) > 0 {
		sort.Strings(unexercised)
		fmt.Printf("not exercised by %s (reported as 0): %s\n", r.workload, strings.Join(unexercised, " "))
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("failed_share %.6f ratio (%d of %d attempted)\n", share, r.failed, r.attempted)
	r.check(r.attempted > 0, "nothing was attempted")
	r.check(r.failed == 0, "%d of %d attempted operations failed", r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(r.failures) > 0 {
		return fmt.Errorf("%d output checks failed", len(r.failures))
	}
	return nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
