// Admission control for the job service: a token bucket per tenant in
// front of one bounded queue, both sized from the M/M/c model in
// sizing.go and re-sized live by one rule: at the end of every window
// of resizeWindow completions, when the window's mean service time is
// more than resizeBand away from the mean the sizing was derived from.
//
// The fast path — Admit on a known tenant — is one mutex, a map lookup
// and float arithmetic: 0 allocs/op, gated by the serviced-admit entry
// in BenchmarkSmoke. Rejections carry the backpressure signal (reason
// plus a retry horizon) the HTTP layer turns into 429 + Retry-After.
package serviced

import (
	"errors"
	"math"
	"sync"
	"time"
)

// Reject reasons, also the wire values in RejectInfo.Reason.
const (
	ReasonRate   = "rate"   // tenant token bucket empty
	ReasonQueue  = "queue"  // bounded queue full
	ReasonClosed = "closed" // service draining
)

// The re-size rule. Done sums the service times of a tumbling window
// of resizeWindow completions and, at the window's end, re-sizes only
// when the window's mean lies more than resizeBand (a fraction) from
// Sizing.MeanService. A 256-job mean is steady on a bimodal mix that a
// few-job average is not, so the limits move when the workload does,
// not when a run of long jobs happens to arrive.
const (
	resizeWindow = 256
	resizeBand   = 0.25
)

// AdmissionConfig configures the admission controller.
type AdmissionConfig struct {
	// Servers is the executor count — the c of the M/M/c sizing.
	Servers int
	// TargetP99 is the sojourn (admit -> result) objective the sizing
	// keeps the modeled p99 under.
	TargetP99 time.Duration
	// InitialMeanService seeds the service-time estimate until the first
	// window of completions has been measured.
	InitialMeanService time.Duration
	// FairShare divides the sized arrival rate among tenants: each
	// tenant's bucket refills at Lambda/FairShare, so any FairShare
	// concurrently active tenants cannot oversubscribe the model and no
	// single tenant can take more than 1/FairShare of capacity.
	// Default 4.
	FairShare int
}

// Decision is one admission verdict.
type Decision struct {
	OK bool
	// Reason is set on rejection: ReasonRate, ReasonQueue, ReasonClosed.
	Reason string
	// Position is the number of jobs waiting ahead of an admitted job
	// (0 = an executor was free at admit time).
	Position int
	// QueueLen and Limit snapshot the queue occupancy and sized bound.
	QueueLen int
	Limit    int
	// RetryAfter is the backpressure horizon for a rejection: when the
	// bucket will hold a token again, or the modeled time for one queue
	// slot to drain.
	RetryAfter time.Duration
}

type tenantBucket struct {
	tokens float64
	last   time.Time
}

// Admission is the token-bucket + bounded-queue controller. Safe for
// concurrent use.
type Admission struct {
	mu      sync.Mutex
	cfg     AdmissionConfig
	sizing  Sizing
	rate    float64 // per-tenant tokens/sec
	burst   float64
	tenants map[string]*tenantBucket

	inflight    int           // admitted and not yet Done (running + queued)
	maxInflight int           // high-water mark, for the contention tests
	mean        time.Duration // last full window's mean service time
	winSum      time.Duration // service times of the current window
	winN        int
	completions uint64
	resizes     uint64
	closed      bool

	admitted, rejectedRate, rejectedQueue, rejectedClosed uint64
}

// NewAdmission sizes and returns a controller.
func NewAdmission(cfg AdmissionConfig) (*Admission, error) {
	if cfg.FairShare <= 0 {
		cfg.FairShare = 4
	}
	if cfg.InitialMeanService <= 0 {
		return nil, errors.New("serviced: need a positive initial mean service time")
	}
	s, err := SizeAdmission(cfg.Servers, cfg.InitialMeanService, cfg.TargetP99)
	if err != nil {
		return nil, err
	}
	a := &Admission{
		cfg:     cfg,
		tenants: make(map[string]*tenantBucket),
		mean:    cfg.InitialMeanService,
	}
	a.apply(s)
	return a, nil
}

// apply installs a sizing (caller holds mu, or is the constructor).
func (a *Admission) apply(s Sizing) {
	a.sizing = s
	a.rate = s.Lambda / float64(a.cfg.FairShare)
	a.burst = math.Max(1, float64(s.QueueDepth))
}

// Admit decides whether tenant may submit one job at now. An OK
// decision reserves one in-flight slot the caller must release with
// Done when the job finishes (success or failure).
func (a *Admission) Admit(tenant string, now time.Time) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	limit := a.sizing.QueueDepth
	waiting := a.inflight - a.cfg.Servers
	if waiting < 0 {
		waiting = 0
	}
	if a.closed {
		a.rejectedClosed++
		return Decision{Reason: ReasonClosed, QueueLen: waiting, Limit: limit,
			RetryAfter: time.Second}
	}
	b, ok := a.tenants[tenant]
	if !ok {
		b = &tenantBucket{tokens: a.burst, last: now}
		a.tenants[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(a.burst, b.tokens+a.rate*dt)
		b.last = now
	}
	if b.tokens < 1 {
		a.rejectedRate++
		retry := time.Duration((1 - b.tokens) / a.rate * float64(time.Second))
		return Decision{Reason: ReasonRate, QueueLen: waiting, Limit: limit, RetryAfter: retry}
	}
	if waiting >= limit {
		a.rejectedQueue++
		retry := a.mean / time.Duration(a.cfg.Servers)
		return Decision{Reason: ReasonQueue, QueueLen: waiting, Limit: limit, RetryAfter: retry}
	}
	b.tokens--
	a.inflight++
	if a.inflight > a.maxInflight {
		a.maxInflight = a.inflight
	}
	a.admitted++
	return Decision{OK: true, Position: waiting, QueueLen: waiting, Limit: limit}
}

// Done releases one admitted job's slot. A positive service time
// (pure execution, excluding queue wait) joins the current window; a
// job released without running passes 0 and counts as a completion
// only. When the window is full, its mean replaces the estimate, and
// the admission limits are re-derived from the model if that mean lies
// more than resizeBand from the one the sizing was derived from.
func (a *Admission) Done(service time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight > 0 {
		a.inflight--
	}
	a.completions++
	if service <= 0 {
		return
	}
	a.winSum += service
	a.winN++
	if a.winN < resizeWindow {
		return
	}
	a.mean = a.winSum / resizeWindow
	a.winSum, a.winN = 0, 0
	sized := a.sizing.MeanService
	if math.Abs(float64(a.mean-sized)) <= resizeBand*float64(sized) {
		return
	}
	if s, err := SizeAdmission(a.cfg.Servers, a.mean, a.cfg.TargetP99); err == nil {
		a.apply(s)
		a.resizes++
	}
}

// Close makes every subsequent Admit reject with ReasonClosed.
func (a *Admission) Close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
}

// Sizing returns the currently installed sizing.
func (a *Admission) Sizing() Sizing {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sizing
}

// AdmissionStats is a snapshot of the controller's counters. Resizes
// counts the live re-sizes Done installed. ServiceMean is the last full
// window's mean service time (InitialMeanService before the first).
type AdmissionStats struct {
	Sizing         Sizing        `json:"sizing"`
	Inflight       int           `json:"inflight"`
	QueueLen       int           `json:"queue_len"`
	MaxInflight    int           `json:"max_inflight"`
	Admitted       uint64        `json:"admitted"`
	RejectedRate   uint64        `json:"rejected_rate"`
	RejectedQueue  uint64        `json:"rejected_queue"`
	RejectedClosed uint64        `json:"rejected_closed"`
	Completions    uint64        `json:"completions"`
	Resizes        uint64        `json:"resizes"`
	ServiceMean    time.Duration `json:"service_mean_ns"`
	Tenants        int           `json:"tenants"`
}

// Stats snapshots the controller.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	waiting := a.inflight - a.cfg.Servers
	if waiting < 0 {
		waiting = 0
	}
	return AdmissionStats{
		Sizing:         a.sizing,
		Inflight:       a.inflight,
		QueueLen:       waiting,
		MaxInflight:    a.maxInflight,
		Admitted:       a.admitted,
		RejectedRate:   a.rejectedRate,
		RejectedQueue:  a.rejectedQueue,
		RejectedClosed: a.rejectedClosed,
		Completions:    a.completions,
		Resizes:        a.resizes,
		ServiceMean:    a.mean,
		Tenants:        len(a.tenants),
	}
}
