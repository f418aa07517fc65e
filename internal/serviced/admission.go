// Admission control for the job service: a token bucket per tenant in
// front of one bounded queue, both sized from the M/M/c model in
// sizing.go and re-sized live as the measured service time drifts.
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

// AdmissionConfig configures the admission controller.
type AdmissionConfig struct {
	// Servers is the executor count — the c of the M/M/c sizing.
	Servers int
	// TargetP99 is the sojourn (admit -> result) objective the sizing
	// keeps the modeled p99 under.
	TargetP99 time.Duration
	// InitialMeanService seeds the service-time estimate before any job
	// has completed; the EWMA takes over from the first completion.
	InitialMeanService time.Duration
	// FairShare divides the sized arrival rate among tenants: each
	// tenant's bucket refills at Lambda/FairShare, so any FairShare
	// concurrently active tenants cannot oversubscribe the model and no
	// single tenant can take more than 1/FairShare of capacity.
	// Default 4.
	FairShare int
	// ResizeEvery re-derives the sizing after this many completions
	// (default 256, 0 uses the default); < 0 disables live re-sizing
	// (benchmarks pin the sizing this way so that every Done costs the
	// same).
	ResizeEvery int
	// EWMAAlpha is the service-time smoothing factor (default 0.2).
	EWMAAlpha float64
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

	inflight    int // admitted and not yet Done (running + queued)
	maxInflight int // high-water mark, for the contention tests
	ewma        float64
	completions uint64
	resizes     uint64
	sinceResize int
	closed      bool

	admitted, rejectedRate, rejectedQueue, rejectedClosed uint64
}

// NewAdmission sizes and returns a controller.
func NewAdmission(cfg AdmissionConfig) (*Admission, error) {
	if cfg.FairShare <= 0 {
		cfg.FairShare = 4
	}
	if cfg.ResizeEvery == 0 {
		cfg.ResizeEvery = 256
	}
	if cfg.EWMAAlpha <= 0 || cfg.EWMAAlpha > 1 {
		cfg.EWMAAlpha = 0.2
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
		ewma:    cfg.InitialMeanService.Seconds(),
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
		retry := time.Duration(a.ewma / float64(a.cfg.Servers) * float64(time.Second))
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

// Done releases one admitted job's slot and folds its measured service
// time (pure execution, excluding queue wait) into the EWMA the sizing
// is derived from. Every ResizeEvery completions — or immediately when
// the estimate has drifted past 2x in either direction — the admission
// limits are re-derived from the model.
func (a *Admission) Done(service time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight > 0 {
		a.inflight--
	}
	if service > 0 {
		a.ewma += a.cfg.EWMAAlpha * (service.Seconds() - a.ewma)
	}
	a.completions++
	if a.cfg.ResizeEvery < 0 {
		return
	}
	a.sinceResize++
	sized := a.sizing.MeanService.Seconds()
	drifted := a.ewma > 2*sized || a.ewma < sized/2
	if a.sinceResize < a.cfg.ResizeEvery && !(drifted && a.sinceResize >= 8) {
		return
	}
	a.sinceResize = 0
	mean := time.Duration(a.ewma * float64(time.Second))
	if mean <= 0 {
		return
	}
	if s, err := SizeAdmission(a.cfg.Servers, mean, a.cfg.TargetP99); err == nil {
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
// counts the live re-sizes Done installed, on the ResizeEvery cadence
// or on drift.
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
	ServiceEWMA    time.Duration `json:"service_ewma_ns"`
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
		ServiceEWMA:    time.Duration(a.ewma * float64(time.Second)),
		Tenants:        len(a.tenants),
	}
}
