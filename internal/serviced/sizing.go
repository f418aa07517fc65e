// Admission sizing: the service dogfooding internal/queuing. The job
// pool is modeled as an M/M/c station — c executors, exponential
// service at the measured mean — and the two admission limits fall out
// of the model:
//
//   - Lambda, the per-second token rate, is the largest arrival rate
//     whose modeled p99 sojourn still sits under the latency objective:
//     the one whose sojourn tail (queuing.MMC.SojournTail) at the
//     objective is at most 1%. Admitted traffic therefore never offers
//     more load than the model says the target can absorb.
//   - QueueDepth bounds waiting jobs so that even a worst-case admit —
//     arriving behind a full queue — drains in time: K slots at mean
//     drain rate c/S plus the service tail must fit the target.
//
// Both are re-derived live when the measured mean service time moves
// (Admission.Done measures it over windows of 256 completions and
// re-sizes when a window's mean leaves a ±25% band around the sized
// one), which is the "measure,
// model, operate" loop of the paper's process applied to the service's
// own front door. The model is exact for Poisson arrivals and
// exponential service; real traffic is neither, so EXPERIMENTS.md
// documents the modeled-vs-measured gap the load-test harness reports.
package serviced

import (
	"errors"
	"math"
	"time"

	"perfeng/internal/queuing"
)

// maxQueueDepth caps the sized queue bound regardless of how loose the
// latency objective is: beyond this, memory and connection count — not
// sojourn time — are the binding constraints.
const maxQueueDepth = 4096

// Sizing is one admission-control configuration derived from the M/M/c
// model, plus the inputs that produced it (for /v1/stats and reports).
type Sizing struct {
	Servers     int           `json:"servers"`
	MeanService time.Duration `json:"mean_service_ns"`
	TargetP99   time.Duration `json:"target_p99_ns"`

	// Lambda is the admitted arrival-rate cap, jobs/second.
	Lambda float64 `json:"lambda"`
	// QueueDepth bounds jobs waiting for an executor (excludes the c
	// running ones).
	QueueDepth int `json:"queue_depth"`
	// Rho and ModeledP99 describe the station at the Lambda cap.
	Rho        float64       `json:"rho"`
	ModeledP99 time.Duration `json:"modeled_p99_ns"`
	// Attainable is false when the objective cannot be met even by an
	// empty system (the service-time tail alone exceeds it) or, in a
	// numerical corner just above that, by a near-empty one; the sizing
	// then falls back to rho=0.5 and QueueDepth = Servers so the service
	// stays usable and the violation is visible in ModeledP99 > TargetP99.
	Attainable bool `json:"attainable"`
}

// SizeAdmission derives the admission limits for c executors with the
// given measured mean service time and p99 sojourn objective.
func SizeAdmission(servers int, meanService, targetP99 time.Duration) (Sizing, error) {
	if servers < 1 {
		return Sizing{}, errors.New("serviced: need at least one executor")
	}
	if meanService <= 0 || targetP99 <= 0 {
		return Sizing{}, errors.New("serviced: service time and target must be positive")
	}
	s := Sizing{
		Servers:     servers,
		MeanService: meanService,
		TargetP99:   targetP99,
		Attainable:  true,
	}
	mu := 1 / meanService.Seconds()
	target := targetP99.Seconds()
	capacity := float64(servers) * mu

	// Largest lambda whose modeled p99 sojourn meets the target, by
	// bisection over (0, c*mu). The p99 is within the target exactly when
	// no more than 1% of sojourns exceed the target (the tail is monotone
	// in t), so each step evaluates the tail once, at the target.
	// feasible() is monotone in lambda: more offered load never shortens
	// the sojourn tail.
	feasible := func(lambda float64) bool {
		m, err := queuing.AnalyzeMMC(lambda, mu, servers)
		return err == nil && m.SojournTail(target) <= 0.01
	}
	// Empty-system floor: with exponential service the p99 of service
	// alone is ln(100)/mu. Above-target means no arrival rate helps; just
	// above it, even a near-empty system can miss numerically. Either way
	// the sizing falls back to rho=0.5 and one queue slot per executor.
	serviceP99 := math.Log(100) / mu
	lo := capacity * 1e-6
	if serviceP99 >= target || !feasible(lo) {
		s.Attainable = false
		s.Lambda = 0.5 * capacity
		s.QueueDepth = servers
	} else {
		hi := capacity * (1 - 1e-9)
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if feasible(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		s.Lambda = lo
		// Queue bound: a job admitted behind K waiters starts after the
		// queue drains at rate c*mu (all servers busy while a queue
		// exists), so its modeled p99 sojourn is K/(c*mu) + serviceP99.
		// The largest K keeping that under target is the depth.
		k := int(math.Floor((target - serviceP99) * capacity))
		if k < 1 {
			k = 1
		}
		if k > maxQueueDepth {
			k = maxQueueDepth
		}
		s.QueueDepth = k
	}
	m, err := queuing.AnalyzeMMC(s.Lambda, mu, servers)
	if err != nil {
		return Sizing{}, err
	}
	s.Rho = m.Rho
	q, err := m.SojournQuantile(0.99)
	if err != nil {
		return Sizing{}, err
	}
	s.ModeledP99 = time.Duration(q * float64(time.Second))
	return s, nil
}
