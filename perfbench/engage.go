package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"perfeng"
	"perfeng/internal/obs"
	"perfeng/internal/sched"
	"perfeng/internal/telemetry"
	"perfeng/internal/tune"
)

// engagementSuite is what one pass engages, back to back, by one caller.
var engagementSuite = []shape{
	{"matmul", 192, 2}, {"stencil", 512, 2}, {"spmv", 4000, 2},
	{"histogram", 1 << 20, 2}, {"pagerank", 20000, 2}, {"gameoflife", 256, 2},
}

// reportSections are the stage sections every engagement report holds.
var reportSections = []string{"Stage 1: requirement", "Stage 2: baseline", "Stage 3: feasibility",
	"Stage 4: approach", "Stage 5/6: variants", "Stage 6: assessment", "Stage 7: model"}

// samplesPerVariant is what the quick protocol measures per variant
// (after one warm-up call).
const samplesPerVariant = 5

// call is one timed Variant.Run of a traced pass.
type call struct {
	app, variant int
	start        time.Time
	dur          time.Duration
}

// engagementPass is what one pass over the suite observed.
type engagementPass struct {
	start, end    time.Time
	runs, renders []span // per application: Engagement.Run and Report.String
	calls         []call // traced passes only
	samples       []int  // per measured variant
}

type span struct{ start, end time.Time }

// runEngagement measures the library user's path: a seven-stage quick
// engagement of each suite application and its rendered report.
func runEngagement(rep *report, outDir string) error {
	if err := checkKernels(rep, engagementSuite); err != nil {
		return err
	}
	// Set-up is building the suite's applications (inputs included).
	var (
		setups []float64
		apps   []*perfeng.Application
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		apps = apps[:0]
		for _, sh := range engagementSuite {
			app, err := perfeng.BuiltinApplication(sh.Kernel, sh.N, sh.Workers)
			if err != nil {
				return err
			}
			apps = append(apps, app)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", "s", median(setups))
	fmt.Printf("suite: %d applications, quick protocol (%d samples per variant), one caller\n", len(apps), samplesPerVariant)

	dur := time.Duration(rep.seconds * float64(time.Second))
	if !rep.traced {
		peak := sampleHeap()
		self0 := selfCPU()
		t0 := time.Now()
		passes := runPasses(rep, apps, dur, false)
		wall := time.Since(t0)
		cpu := selfCPU() - self0
		heap := peak()
		ts := passTimes(passes)
		rep.set("job_p50_ms", "ms", percentile(ts, 50))
		rep.set("job_p99_ms", "ms", percentile(ts, 99))
		rep.set("capacity_jobs_per_s", "jobs/s", float64(len(passes))/wall.Seconds())
		rep.set("cpu_ms_per_job", "ms", ms(cpu)/float64(len(passes)))
		rep.set("peak_rss_mb", "MB", heap/(1<<20))
		fmt.Printf("engagement_suite_s %.6f s (median of %d passes; a job is one pass)\n", percentile(ts, 50)/1e3, len(passes))
		return nil
	}
	return tracedEngagement(rep, apps, dur, outDir)
}

// runPasses engages the suite back to back until dur has passed (at
// least three passes). When traced, every Variant.Run is timed.
func runPasses(rep *report, apps []*perfeng.Application, dur time.Duration, traced bool) []engagementPass {
	var passes []engagementPass
	for start := time.Now(); len(passes) < 3 || time.Since(start) < dur; {
		p := engagementPass{start: time.Now()}
		for i, app := range apps {
			if traced {
				app = timed(app, i, &p.calls)
			}
			rep.attempted++
			if err := engage(app, &p); err != nil {
				rep.failed++
				fmt.Printf("engagement %s failed: %v\n", app.Name, err)
			}
		}
		p.end = time.Now()
		passes = append(passes, p)
	}
	return passes
}

// engage runs one quick engagement and renders and checks its report.
func engage(app *perfeng.Application, p *engagementPass) error {
	e := perfeng.QuickEngagement(app, perfeng.GenericLaptop(),
		perfeng.Requirement{Kind: perfeng.SpeedupAtLeast, Target: 2})
	t0 := time.Now()
	out, err := e.Run()
	t1 := time.Now()
	if err != nil {
		return err
	}
	text := out.Report.String()
	t2 := time.Now()
	p.runs = append(p.runs, span{t0, t1})
	p.renders = append(p.renders, span{t1, t2})
	for _, sec := range reportSections {
		if !strings.Contains(text, sec) {
			return fmt.Errorf("report lacks the %q section", sec)
		}
	}
	for _, v := range out.Variants {
		p.samples = append(p.samples, v.Measurement.N())
		if v.Measurement.N() != samplesPerVariant {
			return fmt.Errorf("variant %s has %d samples, want %d", v.Variant.Name, v.Measurement.N(), samplesPerVariant)
		}
	}
	return nil
}

// timed returns a copy of app whose variants record every call.
func timed(app *perfeng.Application, idx int, calls *[]call) *perfeng.Application {
	c := *app
	wrap := func(v perfeng.Variant, vi int) perfeng.Variant {
		run := v.Run
		v.Run = func() {
			t0 := time.Now()
			run()
			*calls = append(*calls, call{app: idx, variant: vi, start: t0, dur: time.Since(t0)})
		}
		return v
	}
	c.Baseline = wrap(app.Baseline, 0)
	c.Candidates = make([]perfeng.Variant, len(app.Candidates))
	for i, v := range app.Candidates {
		c.Candidates[i] = wrap(v, i+1)
	}
	return &c
}

func passTimes(passes []engagementPass) []float64 {
	ts := make([]float64, len(passes))
	for i, p := range passes {
		ts[i] = ms(p.end.Sub(p.start))
	}
	return ts
}

// sampleHeap samples the Go heap in use (live and free-listed object
// spans) every 5 ms until the returned function is called, which
// returns the peak in bytes.
func sampleHeap() func() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	read := func() float64 {
		metrics.Read(s)
		return float64(s[0].Value.Uint64() + s[1].Value.Uint64())
	}
	var (
		wg   sync.WaitGroup
		peak = read()
		stop = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return max(peak, read())
	}
}

// goCounters reads the runtime's cumulative allocation and GC counters.
func goCounters() (allocBytes, allocObjects, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), float64(s[2].Value.Uint64())
}

// tracedEngagement is the per-layer run of the engagement workload: half
// the time untraced (the reference for the tracing overhead), half with
// every Variant.Run and Report.String timed and sched/tune telemetry on.
func tracedEngagement(rep *report, apps []*perfeng.Application, dur time.Duration, outDir string) error {
	ref := runPasses(rep, apps, dur/2, false)

	reg := telemetry.NewRegistry()
	sched.EnableTelemetry(reg)
	tune.EnableTelemetry(reg)
	defer sched.EnableTelemetry(nil)
	defer tune.EnableTelemetry(nil)
	scrape := func() samples {
		var b bytes.Buffer
		_ = reg.WriteOpenMetrics(&b) // writes to a buffer
		s, _ := parseSamples(&b)
		return s
	}
	sess := obs.NewSession(fmt.Sprintf("perfbench engagement seed %d", rep.seed))
	before := scrape()
	b0, o0, g0 := goCounters()
	t0 := time.Now()
	passes := runPasses(rep, apps, dur/2, true)
	wall := time.Since(t0)
	b1, o1, g1 := goCounters()
	after := scrape()

	n := float64(len(passes))
	refP50, p50 := median(passTimes(ref)), median(passTimes(passes))
	rep.set("trace.overhead_ms", "ms", p50-refP50)
	fmt.Printf("tracing overhead: traced pass p50 %.4f ms - untraced %.4f = %.4f ms\n", p50, refP50, p50-refP50)
	rep.set("go.alloc_bytes_per_job", "B", (b1-b0)/n)
	rep.set("go.alloc_objects_per_job", "count", (o1-o0)/n)
	rep.set("go.gc_cycles_per_1k_jobs", "count", 1000*(g1-g0)/n)
	setTuneSched(rep, before, after, n, wall)

	// Per-pass layer time: kernels (wrapped Variant.Run), the rest of
	// Engagement.Run, and report rendering.
	kernel, overhead, render := make([]float64, len(passes)), make([]float64, len(passes)), make([]float64, len(passes))
	var samples []float64
	served := make([][]float64, len(apps))
	for i, p := range passes {
		var k time.Duration
		for _, c := range p.calls {
			k += c.dur
			if c.variant == len(apps[c.app].Candidates) {
				served[c.app] = append(served[c.app], ms(c.dur))
			}
		}
		var run, rend time.Duration
		for j := range p.runs {
			run += p.runs[j].end.Sub(p.runs[j].start)
			rend += p.renders[j].end.Sub(p.renders[j].start)
		}
		kernel[i], overhead[i], render[i] = ms(k), ms(run-k), ms(rend)
		for _, s := range p.samples {
			samples = append(samples, float64(s))
		}
	}
	rep.set("core.kernel_ms", "ms", median(kernel))
	rep.set("core.overhead_ms", "ms", median(overhead))
	rep.set("metrics.samples_per_variant", "count", mean(samples))
	rep.set("report.render_ms", "ms", median(render))

	probeUnitCosts(rep)
	for i, sh := range engagementSuite {
		cost, err := directKernel(sh)
		if err != nil {
			return err
		}
		setKernelLayer(rep, sh, cost, median(served[i]))
	}

	track := sess.Track("engagement caller")
	for _, p := range passes {
		track.AddSpanAt("pass", nil, p.start, p.end, nil)
		for j := range p.runs {
			name := "engage/" + engagementSuite[j].Kernel
			track.AddSpanAt(name, []string{"pass"}, p.runs[j].start, p.renders[j].end, nil)
			track.AddSpanAt("run", []string{"pass", name}, p.runs[j].start, p.runs[j].end, nil)
			track.AddSpanAt("report", []string{"pass", name}, p.renders[j].start, p.renders[j].end, nil)
		}
		for _, c := range p.calls {
			app := "engage/" + engagementSuite[c.app].Kernel
			v := apps[c.app].Baseline.Name
			if c.variant > 0 {
				v = apps[c.app].Candidates[c.variant-1].Name
			}
			track.AddSpanAt("call/"+v, []string{"pass", app, "run"}, c.start, c.start.Add(c.dur), nil)
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-engagement-seed%d.json", rep.seed))
	if err := writeTrace(sess, path); err != nil {
		return err
	}
	fmt.Printf("trace: %s (%d passes; open with `perfeng critpath -input %s`)\n", path, len(passes), path)
	return nil
}
