package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// setupRepeats is how many times a run sets the daemon up; setup_s is
	// the median and the last daemon serves the run.
	setupRepeats = 9
	// warmupJobs completions precede timing, so admission's first
	// ResizeEvery (256) re-size happens before the measured phases.
	warmupJobs = 256
	// collectorSettle outlasts one runtime-collector interval (1 s), so
	// the go_* gauges on /metrics reflect the phase that just ended.
	collectorSettle = 1100 * time.Millisecond
	// maxGenLate is the generator lateness (p99) beyond which the open
	// loop no longer offered its nominal rate and the run is invalid.
	maxGenLate = 20 * time.Millisecond
	// cycles is how many open-loop / saturation alternations a run makes.
	cycles = 6
)

// runServing measures one serving workload against a fresh perfengd.
func runServing(rep *report, w servingWorkload, bin, outDir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	conns := runtime.NumCPU()
	hc := newClient(conns)
	defer hc.CloseIdleConnections()

	// Three quarters of the measured time is the open loop, the rest the
	// saturation phase. A traced run replays the first half of the
	// schedule untraced (the reference for the tracing overhead), then
	// traced.
	openDur := rep.seconds * 3 / 4
	if rep.traced {
		openDur /= 2
	}
	satDur := time.Duration(rep.seconds / 4 * float64(time.Second))
	rng := rand.New(rand.NewSource(rep.seed))
	open := plan(w, rng, int(w.rate*openDur), true)
	sat := plan(w, rng, 4096, false)
	warm := plan(w, rng, 1024, false)
	fmt.Printf("generator: digest=%s open_loop=%d jobs at %.0f jobs/s (Poisson) over %d tenants, then %s closed loop on %d connections\n",
		digest(open, sat, warm), len(open), w.rate, tenants, satDur, conns)
	fmt.Printf("daemon: %s %s\n", bin, strings.Join(daemonArgs(), " "))

	if err := checkKernels(rep, w.shapes); err != nil {
		return err
	}

	// Set-up: exec -> /healthz -> first job of every shape done (which
	// fills the resolver's per-shape pool).
	var (
		setups []float64
		d      *daemon
		c      *client
		rd     = bufio.NewReaderSize(nil, 4096)
	)
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
			hc.CloseIdleConnections()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, bin, hc); err != nil {
			return err
		}
		c = &client{http: hc, url: d.url, conns: conns}
		for s, sh := range w.shapes {
			if r := c.do(ctx, firstJob(sh, s), time.Now(), rd); !r.ok() {
				d.stop()
				return fmt.Errorf("first %s job: %w", sh, r.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	rep.set("setup_s", "s", median(setups))

	warmRecs, _ := c.closedLoop(ctx, warm, 60*time.Second, warmupJobs)
	fmt.Printf("warm-up: %d jobs, %d completed\n", len(warmRecs), countOK(warmRecs))

	if rep.traced {
		return tracedServing(ctx, rep, w, c, d, open, sat, satDur, outDir)
	}

	// The open loop and the saturation phase alternate in cycles, so a
	// slow spell of the host lands on both rather than on one.
	var (
		ph      openPhase
		satRecs []jobRec
		rates   []float64 // completions per second of each saturation segment
	)
	for _, seg := range segments(open, cycles) {
		if err := ph.run(ctx, c, d, seg); err != nil {
			return err
		}
		recs, wall := c.closedLoop(ctx, sat, satDur/cycles, 0)
		satRecs = append(satRecs, recs...)
		rates = append(rates, float64(countOK(recs))/wall.Seconds())
	}
	ph.summarize()
	rep.set("job_p50_ms", "ms", ph.p50)
	rep.set("job_p99_ms", "ms", ph.p99)
	rep.set("cpu_ms_per_job", "ms", ph.cpuPerJob)
	fmt.Printf("open loop: %d jobs (%d completed) in %.2fs; job_p50_ms=%.4f job_p99_ms=%.4f (medians over %d windows of %d jobs); accept_p50_ms=%.4f; gen.late_ms.p99=%.4f\n",
		len(ph.recs), ph.completed, ph.wall.Seconds(), ph.p50, ph.p99, ph.windows, len(ph.recs)/ph.windows, ph.acceptP50, ph.genLateP99)
	rep.check(ph.genLateP99 < ms(maxGenLate), "generator fell behind: p99 lateness %.1f ms", ph.genLateP99)

	capacity := median(rates)
	rep.set("capacity_jobs_per_s", "jobs/s", capacity)
	fmt.Printf("saturation: %d jobs in %d segments of %s, median %.1f jobs/s; open-loop rate is %.0f%% of capacity\n",
		len(satRecs), cycles, satDur/cycles, capacity, 100*w.rate/capacity)

	rss, err := d.peakRSS()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", "MB", rss)
	tally(rep, ph.recs, satRecs)
	printDaemonProcs(ctx, c, d)
	return nil
}

// segments cuts an open-loop schedule into n consecutive parts, each
// re-timed to start at its first job.
func segments(jobs []plannedJob, n int) [][]plannedJob {
	var segs [][]plannedJob
	for i := 0; i < n; i++ {
		seg := append([]plannedJob(nil), jobs[i*len(jobs)/n:(i+1)*len(jobs)/n]...)
		first := seg[0].due
		for j := range seg {
			seg[j].due -= first
		}
		segs = append(segs, seg)
	}
	return segs
}

// openPhase accumulates open-loop segments and summarizes them.
type openPhase struct {
	recs                []jobRec
	wall, cpu, self     time.Duration // wall, daemon CPU and generator CPU
	completed           int
	p50, p99, acceptP50 float64 // ms, from due time
	cpuPerJob, genCPU   float64 // ms of daemon / generator CPU per job
	genLateP99          float64 // ms
	windows             int     // latency windows the quantiles are the median of
}

// run sends one open-loop schedule and adds what it observed.
func (ph *openPhase) run(ctx context.Context, c *client, d *daemon, jobs []plannedJob) error {
	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	self0 := selfCPU()
	t0 := time.Now()
	recs := c.openLoop(ctx, jobs)
	ph.wall += time.Since(t0)
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	ph.recs = append(ph.recs, recs...)
	ph.cpu += cpu1 - cpu0
	ph.self += selfCPU() - self0
	return nil
}

// window is the number of consecutive jobs a latency quantile is read
// from: a p99 with ten samples beyond it.
const window = 1000

// summarize computes the latency quantiles and per-job costs. The
// quantiles are read per window of consecutive jobs (by due time) and
// the median across windows is reported, so a stall of the host that
// hits a few windows does not set a run's figure.
func (ph *openPhase) summarize() {
	var acc, late []float64
	for i := range ph.recs {
		r := &ph.recs[i]
		if r.genLate > 0 {
			late = append(late, ms(r.genLate))
		}
		if r.ok() {
			acc = append(acc, ms(r.accepted.Sub(r.due)))
		}
	}
	ph.completed = len(acc)
	ph.acceptP50 = median(acc)
	ph.genLateP99 = percentile(late, 99)
	ph.cpuPerJob = ratio(ms(ph.cpu), float64(ph.completed))
	ph.genCPU = ratio(ms(ph.self), float64(len(ph.recs)))

	n := max(1, len(ph.recs)/window)
	var p50s, p99s []float64
	for w := 0; w < n; w++ {
		soj := sojourns(ph.recs[w*len(ph.recs)/n : (w+1)*len(ph.recs)/n])
		p50s = append(p50s, percentile(soj, 50))
		p99s = append(p99s, percentile(soj, 99))
	}
	ph.p50, ph.p99 = median(p50s), median(p99s)
	ph.windows = n
}

// sojourns lists the completed jobs' sojourn times in ms.
func sojourns(recs []jobRec) []float64 {
	var xs []float64
	for i := range recs {
		if recs[i].ok() {
			xs = append(xs, ms(recs[i].sojourn()))
		}
	}
	return xs
}

// tally counts every measured job as attempted, and the failed ones.
func tally(rep *report, phases ...[]jobRec) {
	kinds := map[string]int{}
	for _, recs := range phases {
		for i := range recs {
			rep.attempted++
			if !recs[i].ok() {
				rep.failed++
				kinds[recs[i].err.Error()]++
			}
		}
	}
	for k, n := range kinds {
		fmt.Printf("failure x%d: %s\n", n, k)
	}
}

func countOK(recs []jobRec) int {
	n := 0
	for i := range recs {
		if recs[i].ok() {
			n++
		}
	}
	return n
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// printDaemonProcs stamps the daemon's GOMAXPROCS, read off its own
// runtime gauge.
func printDaemonProcs(ctx context.Context, c *client, d *daemon) {
	s, err := d.scrape(ctx, c.http)
	if err != nil {
		fmt.Println("daemon: /metrics unavailable:", err)
		return
	}
	fmt.Printf("daemon: gomaxprocs=%g pid=%d\n", s["go_sched_gomaxprocs_threads"], d.cmd.Process.Pid)
}
