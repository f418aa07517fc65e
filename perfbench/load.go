package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"perfeng/internal/serviced"
)

// shape is one job kind a workload sends: what the daemon's resolver
// builds and pools one application instance per.
type shape struct {
	Kernel  string
	N       int
	Workers int
}

func (s shape) String() string { return fmt.Sprintf("%s n=%d workers=%d", s.Kernel, s.N, s.Workers) }

// servingWorkload is a job mix and the open-loop rate it is offered at.
type servingWorkload struct {
	shapes []shape
	// reps lists repetition counts in their mix proportions; every shape
	// is sent with each of them.
	reps []int
	// rate is the open-loop arrival rate in jobs/s: 40-55% of the
	// closed-loop capacity measured on a 2-CPU host with this generator
	// on the same CPUs.
	rate float64
}

// tenants spreads jobs round-robin over this many tenant ids. Each
// tenant's token bucket refills at lambda/FairShare(4), so fewer active
// tenants than the fair share would be rate-limited below capacity.
const tenants = 8

var servingWorkloads = map[string]servingWorkload{
	// Kernel time is a few percent of sojourn: the serving stack (handler,
	// admission, SSE encode/flush, net/http, telemetry, GC) dominates. A
	// quarter of the jobs stream 8 progress events.
	"jobs-small": {
		shapes: []shape{{"histogram", 64, 1}, {"fft", 256, 1}, {"spmv", 256, 1}},
		reps:   []int{1, 1, 1, 8},
		rate:   2500,
	},
	// Kernels and sched dominate server time, and a backlog forms, so
	// tail latency reacts to service time. The shapes are small enough
	// that a run completes over a thousand open-loop jobs, so a p99 has
	// ten samples beyond it.
	"jobs-kernel": {
		shapes: []shape{{"matmul", 128, 2}, {"stencil", 512, 2}, {"pagerank", 1024, 2}, {"gameoflife", 192, 2}},
		reps:   []int{2},
		rate:   80,
	},
}

// plannedJob is one generated request.
type plannedJob struct {
	due    time.Duration // offset from the phase start (open loop only)
	shape  int
	reps   int
	tenant int
	body   []byte
}

// plan draws count jobs of w from rng: Poisson arrivals at w.rate when
// timed, and tenants round-robin. The mix is stratified: each block of
// len(shapes)*len(reps) jobs holds every (shape, reps) pair once, in a
// shuffled order, so seeds vary the order and timing of the work but
// not its amount.
func plan(w servingWorkload, rng *rand.Rand, count int, timed bool) []plannedJob {
	jobs := make([]plannedJob, count)
	var (
		at    time.Duration
		block []plannedJob
	)
	for i := range jobs {
		if timed {
			at += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		}
		if len(block) == 0 {
			for s := range w.shapes {
				for _, r := range w.reps {
					block = append(block, plannedJob{shape: s, reps: r})
				}
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		j := block[0]
		block = block[1:]
		j.due, j.tenant = at, i%tenants
		sh := w.shapes[j.shape]
		j.body, _ = json.Marshal(serviced.JobSpec{Tenant: fmt.Sprintf("t%d", j.tenant),
			Kernel: sh.Kernel, N: sh.N, Workers: sh.Workers, Reps: j.reps})
		jobs[i] = j
	}
	return jobs
}

// firstJob is the single-rep job that warms shape s up during set-up.
func firstJob(sh shape, s int) plannedJob {
	body, _ := json.Marshal(serviced.JobSpec{Tenant: "t0", Kernel: sh.Kernel, N: sh.N, Workers: sh.Workers, Reps: 1})
	return plannedJob{shape: s, reps: 1, body: body}
}

// digest fingerprints generated requests (due times and bodies), so two
// runs with one seed provably sent the same thing.
func digest(plans ...[]plannedJob) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range plans {
		for _, j := range p {
			binary.LittleEndian.PutUint64(b[:], uint64(j.due))
			h.Write(b[:])
			h.Write(j.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// jobRec is what the client observed of one job.
type jobRec struct {
	shape, reps int
	// due, send, accepted and result are the schedule slot, the moment
	// the POST went out, and the arrival of the accepted and result
	// events.
	due, send, accepted, result time.Time
	// genLate is how late the generator itself sent a job whose
	// connection was free before it was due (0 otherwise).
	genLate time.Duration
	waitNS  int64 // result.wait_ns: admit -> executor
	totalNS int64 // result.total_ns: sum of repetitions
	events  int
	err     error
	// Traced runs only.
	id    string
	repNS []int64
}

func (j *jobRec) ok() bool { return j.err == nil }

// sojourn is due -> result event.
func (j *jobRec) sojourn() time.Duration { return j.result.Sub(j.due) }

// client is the load generator's HTTP side: at most conns keep-alive
// connections, each carrying one job at a time.
type client struct {
	http   *http.Client
	url    string
	conns  int
	traced bool
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// openLoop sends jobs at their due times (relative to a start just
// after the call) over c.conns connections: a job goes out at its due
// time, or as soon as a connection frees up if all are busy. Every job
// is timed from its due time.
func (c *client) openLoop(ctx context.Context, jobs []plannedJob) []jobRec {
	recs := make([]jobRec, len(jobs))
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := bufio.NewReaderSize(nil, 4096)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				due := start.Add(jobs[i].due)
				var late time.Duration
				if time.Now().Before(due) {
					sleepUntil(due)
					late = time.Since(due)
				}
				recs[i] = c.do(ctx, jobs[i], due, rd)
				recs[i].genLate = late
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop sends jobs back to back over c.conns connections until dur
// has passed or limit jobs have completed (limit 0: no limit), cycling
// through jobs. It returns every record and the phase's wall time.
func (c *client) closedLoop(ctx context.Context, jobs []plannedJob, dur time.Duration, limit int) ([]jobRec, time.Duration) {
	var (
		mu    sync.Mutex
		recs  []jobRec
		next  atomic.Int64
		done  atomic.Int64
		wg    sync.WaitGroup
		start = time.Now()
	)
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := bufio.NewReaderSize(nil, 4096)
			var local []jobRec
			for ctx.Err() == nil && time.Since(start) < dur && (limit == 0 || int(done.Load()) < limit) {
				i := int(next.Add(1)-1) % len(jobs)
				r := c.do(ctx, jobs[i], time.Now(), rd)
				if r.ok() {
					done.Add(1)
				}
				local = append(local, r)
			}
			mu.Lock()
			recs = append(recs, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// sleepUntil blocks until t. The runtime's timers wake about a
// millisecond late on Linux, far too coarse for arrivals 300 µs apart,
// so the last stretch is a nanosleep of the calling thread.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// errProtocol marks a stream that broke the wire contract.
var errProtocol = errors.New("protocol violation")

// do sends one job and consumes its stream, validating the wire
// protocol: schema v1, seq contiguous from 1, accepted -> started ->
// progress x reps -> result, result.reps equal to the spec, and nothing
// after the result.
func (c *client) do(ctx context.Context, pj plannedJob, due time.Time, rd *bufio.Reader) (r jobRec) {
	r = jobRec{shape: pj.shape, reps: pj.reps, due: due}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/jobs", bytes.NewReader(pj.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	r.send = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		r.err = fmt.Errorf("status %d", resp.StatusCode)
		return r
	}
	if c.traced {
		r.id = resp.Header.Get("X-Job-Id")
		r.repNS = make([]int64, 0, pj.reps)
	}
	rd.Reset(resp.Body)
	var frame []byte
	for {
		frame, err = readFrame(rd, frame[:0])
		if err == io.EOF && len(frame) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			r.err = fmt.Errorf("broken stream: %w", err)
			return r
		}
		now := time.Now()
		ev, perr := serviced.ParseSSEFrame(frame)
		r.events++
		if perr != nil {
			r.err = fmt.Errorf("%w: %v", errProtocol, perr)
			return r
		}
		if verr := validate(&r, ev, now); verr != nil {
			r.err = fmt.Errorf("%w: %v", errProtocol, verr)
			return r
		}
	}
	if r.result.IsZero() {
		r.err = fmt.Errorf("%w: stream ended without a result", errProtocol)
	}
	return r
}

// validate checks ev as the r.events-th event of r's stream and records
// what it carries.
func validate(r *jobRec, ev serviced.Event, now time.Time) error {
	i := r.events // 1-based position of ev
	switch {
	case ev.V != serviced.SchemaVersion:
		return fmt.Errorf("schema v%d", ev.V)
	case ev.Seq != uint64(i):
		return fmt.Errorf("seq %d at position %d", ev.Seq, i)
	case !r.result.IsZero():
		return fmt.Errorf("%s after the result", ev.Kind)
	}
	switch {
	case i == 1:
		if ev.Kind != serviced.KindAccepted || ev.Queue == nil {
			return fmt.Errorf("first event %s", ev.Kind)
		}
		r.accepted = now
	case i == 2:
		if ev.Kind != serviced.KindStarted {
			return fmt.Errorf("second event %s", ev.Kind)
		}
	case i <= r.reps+2:
		if ev.Kind != serviced.KindProgress || ev.Rep == nil || ev.Rep.Rep != i-2 || ev.Rep.Reps != r.reps {
			return fmt.Errorf("event %d is %s, want progress %d/%d", i, ev.Kind, i-2, r.reps)
		}
		if r.repNS != nil {
			r.repNS = append(r.repNS, ev.Rep.NS)
		}
	default:
		if ev.Kind != serviced.KindResult || ev.Result == nil || ev.Result.Reps != r.reps {
			return fmt.Errorf("event %d is %s, want a result for %d reps", i, ev.Kind, r.reps)
		}
		r.result = now
		r.waitNS, r.totalNS = ev.Result.WaitNS, ev.Result.TotalNS
	}
	return nil
}

// readFrame appends the next SSE frame (the lines before a blank line)
// to buf. It returns io.EOF with whatever it read at the end of the
// stream.
func readFrame(rd *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		line, err := rd.ReadSlice('\n')
		if len(bytes.TrimRight(line, "\r\n")) == 0 && len(line) > 0 && len(buf) > 0 {
			return buf, nil
		}
		buf = append(buf, line...)
		if err != nil {
			return buf, err
		}
	}
}
