// Package serviced is perfengd: the multi-tenant kernel-run job
// service layered on the perfeng serve monitoring endpoint (ROADMAP
// item 1). Clients POST kernel-run requests (kernel, shape, sched
// policy, reps) to /v1/jobs; admitted jobs execute on a fixed set of
// executors dispatching onto the shared internal/sched pool, and the
// response streams typed, versioned progress/result events over SSE
// (events.go). Admission control (admission.go) is a per-tenant token
// bucket plus one bounded queue, both sized from internal/queuing's
// M/M/c model (sizing.go) — the toolbox dogfooding its own queuing
// theory — with rejections surfacing as 429 + Retry-After. Every
// decision and latency exports through internal/telemetry, and
// rejections leave context in the internal/flight black box.
package serviced

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"perfeng/internal/flight"
	"perfeng/internal/stats"
	"perfeng/internal/telemetry"
)

// JobSpec is the request body of POST /v1/jobs.
type JobSpec struct {
	// Tenant identifies the admission-control principal; empty maps to
	// "anon".
	Tenant string `json:"tenant"`
	// Kernel names the workload (the resolver validates it).
	Kernel string `json:"kernel"`
	// N is the problem size, Workers the parallel worker count
	// (0 = kernel default), Policy the sched policy name ("stealing",
	// "static", "guided"; advisory, resolver-interpreted).
	N       int    `json:"n"`
	Workers int    `json:"workers"`
	Policy  string `json:"policy,omitempty"`
	// Reps is how many repetitions to run and measure (default 1,
	// clamped to Config.MaxReps).
	Reps int `json:"reps"`
}

// Runner executes one repetition of a resolved job.
type Runner func(rep int) error

// Resolver turns a validated spec into a Runner. It must reject
// unknown kernels and out-of-range shapes — resolution happens before
// admission, so a malformed request never consumes a queue slot.
type Resolver func(spec JobSpec) (Runner, error)

// Config configures a Service.
type Config struct {
	// Resolve is required.
	Resolve Resolver
	// Admission sizes the front door (see AdmissionConfig; Servers also
	// sets the executor count).
	Admission AdmissionConfig
	// Registry receives the perfeng_serviced_* metrics; nil disables
	// telemetry (handles no-op).
	Registry *telemetry.Registry
	// MaxReps clamps JobSpec.Reps (default 64).
	MaxReps int
}

// job is one admitted request flowing from the HTTP handler to an
// executor. The handler is the only goroutine writing the response;
// the executor publishes events into the buffered channel, whose
// capacity (reps+3) covers the whole stream so the executor never
// blocks on a slow or disconnected client and no event is ever
// dropped.
type job struct {
	spec    JobSpec
	id      string
	runner  Runner
	admitAt time.Time
	seq     uint64
	events  chan Event
}

// sseFrameCap is the buffer room reserved per SSE frame of a stream.
// It is sized for typical frames (the built-in kernels' ids and short
// tenants): started, progress and result frames then take ~87, ~127
// and ~234 bytes, so reps+3 slots hold every event after accepted in
// one batch, and a one-rep job reserves 512 bytes. Frames carry the
// client's tenant, so a longer one grows the buffer once.
const sseFrameCap = 128

func (j *job) next() uint64 { j.seq++; return j.seq }

func (j *job) emit(e Event) {
	e.V = SchemaVersion
	e.Job = j.id
	e.Tenant = j.spec.Tenant
	e.Seq = j.next()
	j.events <- e
}

// drain appends the SSE frames of every event already in j.events to
// buf without blocking. It returns the grown buffer, the number of
// frames appended, and false once the executor has closed the channel.
func (j *job) drain(buf []byte) ([]byte, uint64, bool) {
	var n uint64
	for {
		select {
		case e, ok := <-j.events:
			if !ok {
				return buf, n, false
			}
			buf = AppendSSE(buf, &e)
			n++
		default:
			return buf, n, true
		}
	}
}

// Service is the job service. Create with New, attach Handler to an
// HTTP server, Close to drain.
type Service struct {
	cfg   Config
	adm   *Admission
	queue chan *job
	wg    sync.WaitGroup
	ids   atomic.Uint64
	_     [56]byte // keep the id counter off the RWMutex's cache line

	mu     sync.RWMutex // guards closed vs. enqueue
	closed bool

	met serviceMetrics
}

// serviceMetrics are the perfeng_serviced_* handles; all nil (no-op)
// without a registry.
type serviceMetrics struct {
	admitted, rejectedRate, rejectedQueue, rejectedClosed *telemetry.Counter
	badRequests, completed, jobErrors, eventsSent         *telemetry.Counter
	disconnects                                           *telemetry.Counter
	tenantAdmitted                                        *telemetry.CounterFamily
	queueLen, inflight, lambda, depth                     *telemetry.Gauge
	modeledP99, serviceEWMA                               *telemetry.Gauge
	sojourn, service, wait                                *telemetry.Histogram
}

func newServiceMetrics(reg *telemetry.Registry) serviceMetrics {
	req := reg.CounterFamily("perfeng_serviced_requests",
		"Job requests by admission decision.", "decision")
	return serviceMetrics{
		admitted:       req.With("admitted"),
		rejectedRate:   req.With("rejected_rate"),
		rejectedQueue:  req.With("rejected_queue"),
		rejectedClosed: req.With("rejected_closed"),
		badRequests:    req.With("bad_request"),
		completed: reg.Counter("perfeng_serviced_jobs_completed",
			"Jobs that ran to a result event."),
		jobErrors: reg.Counter("perfeng_serviced_job_errors",
			"Jobs whose kernel returned an error."),
		eventsSent: reg.Counter("perfeng_serviced_events_sent",
			"SSE events written to clients."),
		disconnects: reg.Counter("perfeng_serviced_client_disconnects",
			"Streams abandoned by the client before the result event."),
		tenantAdmitted: reg.CounterFamily("perfeng_serviced_tenant_admitted",
			"Admitted jobs per tenant (cardinality-bounded by the tenant population).", "tenant"),
		queueLen: reg.Gauge("perfeng_serviced_queue_len",
			"Jobs waiting for an executor."),
		inflight: reg.Gauge("perfeng_serviced_inflight",
			"Admitted jobs not yet completed (running + queued)."),
		lambda: reg.Gauge("perfeng_serviced_admit_lambda",
			"Model-sized admitted arrival-rate cap, jobs/second."),
		depth: reg.Gauge("perfeng_serviced_queue_depth_limit",
			"Model-sized bound on waiting jobs."),
		modeledP99: reg.Gauge("perfeng_serviced_modeled_p99_seconds",
			"Modeled p99 sojourn at the sized arrival cap."),
		serviceEWMA: reg.Gauge("perfeng_serviced_service_ewma_seconds",
			"Smoothed measured mean service time feeding the sizing."),
		sojourn: reg.Histogram("perfeng_serviced_sojourn_seconds",
			"Admit-to-completion time of admitted jobs.", -30, 4),
		service: reg.Histogram("perfeng_serviced_service_seconds",
			"Pure execution time of admitted jobs.", -30, 4),
		wait: reg.Histogram("perfeng_serviced_wait_seconds",
			"Queue wait of admitted jobs.", -30, 4),
	}
}

// New builds a Service and starts its executors.
func New(cfg Config) (*Service, error) {
	if cfg.Resolve == nil {
		return nil, errors.New("serviced: config needs a resolver")
	}
	if cfg.MaxReps <= 0 {
		cfg.MaxReps = 64
	}
	adm, err := NewAdmission(cfg.Admission)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg: cfg,
		adm: adm,
		// Admission bounds inflight by Servers + QueueDepth and the
		// depth never exceeds maxQueueDepth, so this capacity means an
		// admitted job can always be enqueued without blocking.
		queue: make(chan *job, cfg.Admission.Servers+maxQueueDepth+1),
		met:   newServiceMetrics(cfg.Registry),
	}
	s.publishSizing()
	for i := 0; i < cfg.Admission.Servers; i++ {
		s.wg.Add(1)
		//perfvet:ignore:allocattr each executor allocates its reusable duration buffer once at spawn, not per job
		go s.executor()
	}
	return s, nil
}

// publishSizing mirrors the current sizing and occupancy into gauges.
func (s *Service) publishSizing() {
	st := s.adm.Stats()
	s.met.queueLen.Set(float64(st.QueueLen))
	s.met.inflight.Set(float64(st.Inflight))
	s.met.lambda.Set(st.Sizing.Lambda)
	s.met.depth.Set(float64(st.Sizing.QueueDepth))
	s.met.modeledP99.Set(st.Sizing.ModeledP99.Seconds())
	s.met.serviceEWMA.Set(st.ServiceEWMA.Seconds())
}

// Admission exposes the controller (stats endpoints, tests).
func (s *Service) Admission() *Admission { return s.adm }

// Close drains the service: new requests are rejected, queued jobs run
// to completion, executors exit.
func (s *Service) Close() {
	s.adm.Close()
	s.mu.Lock()
	already := s.closed
	s.closed = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	if !already {
		s.wg.Wait()
	}
}

// Handler returns the /v1/ routing table: POST /v1/jobs (SSE stream),
// GET /v1/stats (admission + sizing snapshot JSON).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

// Attach registers the service's routes on any HandleFunc-style
// registrar (telemetry.Server satisfies it), which is how perfeng
// serve mounts the job API next to /metrics.
func (s *Service) Attach(reg interface {
	HandleFunc(pattern string, fn http.HandlerFunc)
}) {
	reg.HandleFunc("/v1/jobs", s.handleJobs)
	reg.HandleFunc("/v1/stats", s.handleStats)
}

// ServiceStats is the GET /v1/stats body: the admission ledger plus
// the server-side sojourn quantiles (admit -> done, from the telemetry
// histogram). The latter is what the load-test harness compares the
// M/M/c prediction against — same station, same clock — while the
// client-observed sojourn additionally carries HTTP transport cost.
type ServiceStats struct {
	AdmissionStats
	SojournP50 time.Duration `json:"sojourn_p50_ns"`
	SojournP95 time.Duration `json:"sojourn_p95_ns"`
	SojournP99 time.Duration `json:"sojourn_p99_ns"`
}

// Stats snapshots the service.
func (s *Service) Stats() ServiceStats {
	q := func(p float64) time.Duration {
		v := s.met.sojourn.Quantile(p)
		if math.IsNaN(v) || v < 0 {
			return 0
		}
		return time.Duration(v * float64(time.Second))
	}
	return ServiceStats{
		AdmissionStats: s.adm.Stats(),
		SojournP50:     q(0.50),
		SojournP95:     q(0.95),
		SojournP99:     q(0.99),
	}
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a job spec", http.StatusMethodNotAllowed)
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10))
	if err := dec.Decode(&spec); err != nil {
		s.met.badRequests.Inc()
		http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if spec.Tenant == "" {
		spec.Tenant = "anon"
	}
	if spec.Reps <= 0 {
		spec.Reps = 1
	}
	if spec.Reps > s.cfg.MaxReps {
		spec.Reps = s.cfg.MaxReps
	}
	runner, err := s.cfg.Resolve(spec)
	if err != nil {
		s.met.badRequests.Inc()
		http.Error(w, "unresolvable job: "+err.Error(), http.StatusBadRequest)
		return
	}

	now := time.Now()
	d := s.adm.Admit(spec.Tenant, now)
	if !d.OK {
		s.reject(w, spec, d)
		return
	}
	s.met.admitted.Inc()
	s.met.tenantAdmitted.With(spec.Tenant).Inc()
	s.publishSizing()

	j := &job{
		spec:    spec,
		id:      fmt.Sprintf("j%d", s.ids.Add(1)),
		runner:  runner,
		admitAt: now,
		events:  make(chan Event, spec.Reps+3),
	}

	// The handler owns the response; the accepted event goes out first,
	// then everything the executor publishes, in seq order.
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Job-Id", j.id)
	flusher, _ := w.(http.Flusher)
	// One buffer for the whole stream: reps+3 frames of sseFrameCap
	// bytes hold the largest batch of typical frames.
	buf := make([]byte, 0, sseFrameCap*(spec.Reps+3))
	accepted := Event{
		V: SchemaVersion, Kind: KindAccepted, Job: j.id, Tenant: spec.Tenant, Seq: j.next(),
		Queue: &QueueInfo{Position: d.Position, Len: d.QueueLen, Limit: d.Limit,
			Servers: s.cfg.Admission.Servers},
	}
	buf = AppendSSE(buf[:0], &accepted)
	if _, err := w.Write(buf); err == nil {
		s.met.eventsSent.Inc()
		if flusher != nil {
			flusher.Flush()
		}
	}

	if !s.enqueue(j) {
		// Lost the race with Close after admission: release the slot and
		// end the stream with an error event.
		s.adm.Done(0)
		errEv := Event{Kind: KindError, Message: "service draining"}
		errEv.V, errEv.Job, errEv.Tenant, errEv.Seq = SchemaVersion, j.id, spec.Tenant, j.next()
		if _, err := w.Write(AppendSSE(buf[:0], &errEv)); err == nil {
			s.met.eventsSent.Inc()
		}
		return
	}

	// Each wake-up sends one batch: the event that woke the handler plus
	// every event already waiting behind it, in one Write and one Flush.
	// No event waits for a later one, and the last batch is flushed here
	// rather than left to net/http. (net/http formats each chunk's size
	// through fmt, which allocates for a chunk of 256 bytes or more, so
	// most batches of two or more frames cost one small allocation.)
	ctx := r.Context()
	for {
		select {
		case e, ok := <-j.events:
			if !ok {
				return
			}
			buf = AppendSSE(buf[:0], &e)
			var n uint64
			buf, n, ok = j.drain(buf)
			if _, err := w.Write(buf); err != nil {
				// Client went away; the job still runs (its slot is
				// accounted for) but nobody is listening.
				s.met.disconnects.Inc()
				return
			}
			s.met.eventsSent.Add(1 + n)
			if flusher != nil {
				flusher.Flush()
			}
			if !ok {
				return
			}
		case <-ctx.Done():
			s.met.disconnects.Inc()
			return
		}
	}
}

// reject writes the 429 (or 503 when draining): Retry-After header in
// whole seconds rounded up, millisecond-resolution horizon in the JSON
// body, context dropped into the flight recorder's black box.
func (s *Service) reject(w http.ResponseWriter, spec JobSpec, d Decision) {
	status := http.StatusTooManyRequests
	switch d.Reason {
	case ReasonRate:
		s.met.rejectedRate.Inc()
	case ReasonQueue:
		s.met.rejectedQueue.Inc()
	default:
		s.met.rejectedClosed.Inc()
		status = http.StatusServiceUnavailable
	}
	if rec := flight.Active(); rec != nil {
		rec.RecordInstant("serviced", "reject/"+d.Reason, rec.Now())
		rec.RecordSample("perfeng_serviced_queue_len", rec.Now(), float64(d.QueueLen))
	}
	retry := d.RetryAfter
	if retry < 0 {
		retry = 0
	}
	secs := int64((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	e := Event{
		V: SchemaVersion, Kind: KindRejected, Tenant: spec.Tenant, Seq: 1,
		Reject: &RejectInfo{Reason: d.Reason, RetryAfterMS: retry.Milliseconds(),
			QueueLen: d.QueueLen, Limit: d.Limit},
	}
	w.Write(AppendJSON(make([]byte, 0, 256), &e))
	w.Write([]byte("\n"))
}

// enqueue hands j to the executors unless the service is draining.
func (s *Service) enqueue(j *job) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	s.queue <- j // capacity covers every admissible job; never blocks
	return true
}

// executor consumes jobs until the queue closes. The per-rep duration
// buffer is owned by the executor and reused across jobs (MaxReps
// bounds it), so the steady state allocates nothing per job.
func (s *Service) executor() {
	defer s.wg.Done()
	durs := make([]float64, 0, s.cfg.MaxReps)
	for j := range s.queue {
		//perfvet:ignore:allocattr per-rep progress payloads escape into the event channel and are consumed concurrently by the streaming handler; they cannot be reused
		s.run(j, durs)
	}
}

// run executes one job: started, one progress per rep, then result (or
// error), releasing the admission slot with the measured service time.
func (s *Service) run(j *job, durs []float64) {
	started := time.Now()
	wait := started.Sub(j.admitAt)
	j.emit(Event{Kind: KindStarted})

	reps := j.spec.Reps
	durs = durs[:0]
	var total time.Duration
	for rep := 1; rep <= reps; rep++ {
		t0 := time.Now()
		err := j.runner(rep)
		d := time.Since(t0)
		total += d
		if err != nil {
			s.met.jobErrors.Inc()
			j.emit(Event{Kind: KindError, Message: err.Error()})
			close(j.events)
			s.finish(j, wait, total)
			return
		}
		durs = append(durs, float64(d))
		j.emit(Event{Kind: KindProgress, Rep: &RepInfo{Rep: rep, Reps: reps, NS: int64(d)}})
	}
	res := &ResultInfo{
		Kernel:  j.spec.Kernel,
		Reps:    reps,
		WaitNS:  int64(wait),
		MeanNS:  int64(stats.Mean(durs)),
		P50NS:   int64(stats.Percentile(durs, 50)),
		P95NS:   int64(stats.Percentile(durs, 95)),
		P99NS:   int64(stats.Percentile(durs, 99)),
		TotalNS: int64(total),
	}
	j.emit(Event{Kind: KindResult, Result: res})
	close(j.events)
	s.met.completed.Inc()
	s.finish(j, wait, total)
}

// finish releases the admission slot and records the latency split.
func (s *Service) finish(j *job, wait, service time.Duration) {
	s.adm.Done(service)
	sojourn := time.Since(j.admitAt)
	s.met.sojourn.Observe(sojourn.Seconds())
	s.met.service.Observe(service.Seconds())
	s.met.wait.Observe(wait.Seconds())
	s.publishSizing()
	if rec := flight.Active(); rec != nil {
		end := rec.Now()
		rec.RecordSpan("serviced", "job/"+j.spec.Kernel, j.id, end-sojourn, sojourn)
	}
}
