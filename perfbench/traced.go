package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"perfeng/internal/obs"
)

// tracedServing is the per-layer run of a serving workload: an untraced
// open-loop pass as reference, the same schedule again with every SSE
// event's arrival recorded and /metrics scraped around it, a traced
// saturation phase, the unit-cost probes, and the Chrome trace export
// with its tiling check.
func tracedServing(ctx context.Context, rep *report, w servingWorkload, c *client, d *daemon,
	open, sat []plannedJob, satDur time.Duration, outDir string) error {
	var ref, ph openPhase
	if err := ref.run(ctx, c, d, open); err != nil {
		return err
	}
	ref.summarize()

	time.Sleep(collectorSettle)
	before, err := d.scrape(ctx, c.http)
	if err != nil {
		return err
	}
	c.traced = true
	sess := obs.NewSession(fmt.Sprintf("perfbench %s seed %d", rep.workload, rep.seed))
	if err := ph.run(ctx, c, d, open); err != nil {
		return err
	}
	ph.summarize()
	time.Sleep(collectorSettle)
	after, err := d.scrape(ctx, c.http)
	if err != nil {
		return err
	}
	satRecs, _ := c.closedLoop(ctx, sat, satDur, 0)
	tally(rep, ref.recs, ph.recs, satRecs)

	jobs := float64(ph.completed)
	rep.set("trace.overhead_ms", "ms", ph.p50-ref.p50)
	rep.set("gen.late_ms.p99", "ms", ph.genLateP99)
	rep.set("gen.cpu_ms_per_job", "ms", ph.genCPU)
	rep.check(ph.genLateP99 < ms(maxGenLate), "generator fell behind: p99 lateness %.1f ms", ph.genLateP99)
	fmt.Printf("tracing overhead: traced job_p50_ms %.4f - untraced %.4f = %.4f ms\n", ph.p50, ref.p50, ph.p50-ref.p50)

	// Layer split of each job, from the client's clock and the result
	// event's server-side wait and per-rep times.
	tiles := make([]tiling, 0, len(ph.recs))
	var accept, stream, queue, clientWait, events []float64
	var serviceNS, visibleNS float64
	repMS := make([][]float64, len(w.shapes))
	for i := range ph.recs {
		r := &ph.recs[i]
		if !r.ok() {
			continue
		}
		t := tile(r)
		tiles = append(tiles, t)
		accept = append(accept, ms(r.accepted.Sub(r.send)))
		stream = append(stream, ms(t.stream))
		queue = append(queue, float64(r.waitNS)/1e6)
		clientWait = append(clientWait, ms(t.clientWait))
		events = append(events, float64(r.events))
		serviceNS += float64(r.totalNS)
		visibleNS += float64(t.accept + t.service + t.stream)
		for _, ns := range r.repNS {
			repMS[r.shape] = append(repMS[r.shape], float64(ns)/1e6)
		}
	}
	rep.set("serviced.accept_ms.p50", "ms", median(accept))
	rep.set("serviced.stream_ms.p50", "ms", median(stream))
	rep.set("serviced.events_per_job", "count", mean(events))
	rep.set("serviced.queue_wait_ms.p50", "ms", percentile(queue, 50))
	rep.set("serviced.queue_wait_ms.p99", "ms", percentile(queue, 99))
	rep.set("serviced.client_wait_ms.p99", "ms", percentile(clientWait, 99))
	rep.set("serviced.service_share", "ratio", ratio(serviceNS, visibleNS))
	attempted := float64(len(ph.recs))
	rep.set("serviced.rejected_share.rate", "ratio",
		ratio(delta(before, after, `perfeng_serviced_requests_total{decision="rejected_rate"}`), attempted))
	rep.set("serviced.rejected_share.queue", "ratio",
		ratio(delta(before, after, `perfeng_serviced_requests_total{decision="rejected_queue"}`), attempted))

	rep.set("go.alloc_bytes_per_job", "B", ratio(delta(before, after, "go_gc_heap_allocs_bytes"), jobs))
	rep.set("go.alloc_objects_per_job", "count", ratio(delta(before, after, "go_gc_heap_allocs_objects"), jobs))
	rep.set("go.gc_cycles_per_1k_jobs", "count", 1000*ratio(delta(before, after, "go_gc_cycles_total_cycles"), jobs))
	setTuneSched(rep, before, after, jobs, ph.wall)

	u := probeUnitCosts(rep)
	for s, sh := range w.shapes {
		cost, err := directKernel(sh)
		if err != nil {
			return err
		}
		setKernelLayer(rep, sh, cost, median(repMS[s]))
	}
	fmt.Printf("consistency: admission %.0f ns x 1 per job vs accept layer p50 %.4f ms\n", u.admit, median(accept))
	fmt.Printf("consistency: sse encode %.0f ns x %.2f events per job = %.4f ms vs stream layer p50 %.4f ms\n",
		u.sseEncode, mean(events), u.sseEncode*mean(events)/1e6, median(stream))
	regions := ratio(delta(before, after, "perfeng_sched_regions_total"), jobs)
	fmt.Printf("consistency: parallel-for %.0f ns x %.2f dispatched regions per job = %.4f ms per job\n",
		u.parallelFor, regions, u.parallelFor*regions/1e6)
	fmt.Printf("layer split: kernel service is %.1f%% of accept+service+stream\n", 100*ratio(serviceNS, visibleNS))

	return exportJobs(rep, sess, w, ph.recs, tiles, outDir)
}

// setTuneSched reports the tune and sched layers from counter deltas
// over a phase of the given wall time that completed jobs jobs.
func setTuneSched(rep *report, before, after samples, jobs float64, wall time.Duration) {
	lookups := delta(before, after, "perfeng_tune_lookups_total")
	rep.set("tune.lookups_per_job", "count", ratio(lookups, jobs))
	rep.set("tune.hit_ratio", "ratio", ratio(delta(before, after, "perfeng_tune_lookup_hits_total"), lookups))

	regions := delta(before, after, "perfeng_sched_regions_total")
	inline := delta(before, after, "perfeng_sched_regions_inline_total")
	steals := delta(before, after, "perfeng_sched_steals_total")
	fails := delta(before, after, "perfeng_sched_steal_failures_total")
	busy := delta(before, after, "perfeng_sched_worker_busy_nanoseconds_total")
	rep.set("sched.regions_per_job", "count", ratio(regions+inline, jobs))
	rep.set("sched.inline_share", "ratio", ratio(inline, regions+inline))
	rep.set("sched.tasks_per_region", "count", ratio(delta(before, after, "perfeng_sched_tasks_total"), regions))
	rep.set("sched.steals_per_region", "count", ratio(steals, regions))
	rep.set("sched.steal_fail_ratio", "ratio", ratio(fails, steals+fails))
	rep.set("sched.busy_share", "ratio", ratio(busy, float64(wall)*float64(runtime.NumCPU())))
}

// tiling is one job's sojourn split into layers that sum to it exactly.
type tiling struct {
	clientWait, accept, queue, service, stream time.Duration
}

// tile splits r's sojourn: client_wait (due -> send), accept (send ->
// accepted event), queue (result.wait_ns), service (the reps) and
// stream (the rest: SSE encode, flush, transport and client parsing
// after the job ran). The server's admit -> result interval lies
// inside the client's send -> result one, so the remainder is never
// negative; accept is capped where its arrival overlapped the job
// already running.
func tile(r *jobRec) tiling {
	t := tiling{clientWait: r.send.Sub(r.due), queue: time.Duration(r.waitNS)}
	for _, ns := range r.repNS {
		t.service += time.Duration(ns)
	}
	rest := r.result.Sub(r.send) - t.queue - t.service
	t.accept = min(r.accepted.Sub(r.send), rest)
	t.stream = rest - t.accept
	return t
}

// exportJobs writes one span per job, keyed by its X-Job-Id, with
// client_wait, accept, queue, one service span per rep and stream as
// children, then reads the file back and checks that each job's
// children sum to its sojourn.
func exportJobs(rep *report, sess *obs.Session, w servingWorkload, recs []jobRec, tiles []tiling, outDir string) error {
	var lanes []time.Time // end of the last job on each track
	k := 0
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		t := tiles[k]
		k++
		lane := 0
		for lane < len(lanes) && lanes[lane].After(r.due) {
			lane++
		}
		if lane == len(lanes) {
			lanes = append(lanes, time.Time{})
		}
		lanes[lane] = r.result
		track := sess.Track(fmt.Sprintf("jobs lane %02d", lane))
		parent := "job/" + w.shapes[r.shape].Kernel
		at := sess.At(r.due)
		track.AddSpanOffsets(parent, nil, at, at+r.sojourn(),
			map[string]any{"job": r.id, "reps": r.reps})
		stack := []string{parent}
		args := map[string]any{"job": r.id}
		add := func(name string, d time.Duration) {
			track.AddSpanOffsets(name, stack, at, at+d, args)
			at += d
		}
		add("client_wait", t.clientWait)
		add("accept", t.accept)
		add("queue", t.queue)
		for _, ns := range r.repNS {
			add("service", time.Duration(ns))
		}
		add("stream", t.stream)
	}

	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", rep.workload, rep.seed))
	if err := writeTrace(sess, path); err != nil {
		return err
	}
	negative := 0
	for _, t := range tiles {
		if t.clientWait < 0 || t.accept < 0 || t.queue < 0 || t.service < 0 || t.stream < 0 {
			negative++
		}
	}
	worst, jobs, err := checkTiling(path)
	if err != nil {
		return err
	}
	rep.set("trace.tiling_max_err_us", "us", worst.Seconds()*1e6)
	rep.check(jobs == len(tiles), "trace holds %d jobs, wrote %d", jobs, len(tiles))
	rep.check(negative == 0, "%d jobs have a layer of negative length", negative)
	rep.check(worst <= time.Microsecond, "layer spans miss their job's sojourn by up to %v", worst)
	fmt.Printf("trace: %s (%d jobs on %d lanes; open with `perfeng critpath -input %s`); tiling max error %v\n",
		path, jobs, len(lanes), path, worst)
	return nil
}

func writeTrace(sess *obs.Session, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sess.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// checkTiling reads a job trace back and returns the largest gap
// between a job span and the sum of its children, and the number of
// jobs.
func checkTiling(path string) (worst time.Duration, jobs int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	s, err := obs.ReadChromeTrace(f)
	if err != nil {
		return 0, 0, err
	}
	sojourn := map[string]time.Duration{}
	sum := map[string]time.Duration{}
	for _, sp := range s.Spans() {
		id, _ := sp.Args["job"].(string)
		if strings.HasPrefix(sp.Name, "job/") {
			sojourn[id] = sp.Dur
		} else {
			sum[id] += sp.Dur
		}
	}
	for id, d := range sojourn {
		gap := d - sum[id]
		worst = max(worst, gap, -gap)
	}
	return worst, len(sojourn), nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
