// Closed-loop load-test harness for the job service: N clients each
// POST a job, consume the SSE stream to the result, validate the wire
// protocol as they go, and immediately submit the next job. On 429 a
// client honors the backpressure signal (the body's retry_after_ms)
// before retrying — rejected work is deferred, not lost, which is what
// makes the loop closed. The report carries measured sojourn quantiles
// next to the server's model-sized prediction so the CI load gate (and
// EXPERIMENTS.md) can hold the M/M/c sizing to account.
package serviced

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfeng/internal/queuing"
	"perfeng/internal/stats"
)

// LoadConfig configures one load-test run.
type LoadConfig struct {
	// URL is the service base (e.g. "http://127.0.0.1:8091"); /v1/jobs
	// and /v1/stats are appended.
	URL string
	// Clients is the closed-loop client count.
	Clients int
	// Duration is how long clients keep submitting.
	Duration time.Duration
	// Tenants spreads clients round-robin over this many tenant ids
	// (default 1).
	Tenants int
	// Spec is the job each client submits (Tenant is overridden).
	Spec JobSpec
	// MaxRetryWait caps how long a client sleeps on backpressure
	// (default 2s) so a pathological Retry-After cannot park the fleet.
	MaxRetryWait time.Duration
	// Think, when positive, is the mean of an exponential pause each
	// client takes between jobs. Zero-think closed loops always drive
	// the service to saturation (useful for the backpressure gate);
	// with think time the fleet approximates Poisson arrivals at
	// Clients/Think jobs/sec, the regime where the M/M/c comparison is
	// meaningful.
	Think time.Duration
	// Client optionally overrides the HTTP client (tests inject
	// httptest clients); nil builds one tuned for Clients connections.
	Client *http.Client
}

// LoadReport is the outcome of a run: throughput, client-observed
// sojourn quantiles, protocol-validation counters, and the server's
// own model prediction for comparison.
type LoadReport struct {
	Clients  int           `json:"clients"`
	Tenants  int           `json:"tenants"`
	Duration time.Duration `json:"duration_ns"`

	Completed          int64 `json:"completed"`
	Rejected           int64 `json:"rejected"`
	RejectedRate       int64 `json:"rejected_rate"`
	RejectedQueue      int64 `json:"rejected_queue"`
	Errors             int64 `json:"errors"`
	ProtocolViolations int64 `json:"protocol_violations"`
	// Throughput is completed jobs per second of wall time.
	Throughput float64 `json:"throughput_jobs_per_sec"`

	// Client-observed sojourn: POST issued -> result event received.
	MeanSojourn time.Duration `json:"mean_sojourn_ns"`
	P50Sojourn  time.Duration `json:"p50_sojourn_ns"`
	P95Sojourn  time.Duration `json:"p95_sojourn_ns"`
	P99Sojourn  time.Duration `json:"p99_sojourn_ns"`
	MaxSojourn  time.Duration `json:"max_sojourn_ns"`

	// ServerStats is the /v1/stats snapshot taken at the end of the run.
	ServerStats *ServiceStats `json:"server_stats,omitempty"`
	// ModeledP99 re-runs the server's own M/M/c model at the *achieved*
	// throughput and measured mean service time. It is compared against
	// the server-side sojourn p99 (same station, same clock); the
	// client-observed P99Sojourn additionally carries HTTP transport
	// cost and is reported separately.
	ModeledP99 time.Duration `json:"modeled_p99_ns"`
	// ModelError is (measured - modeled) / modeled over the server-side
	// sojourn p99, when both exist.
	ModelError float64 `json:"model_error"`
}

// loadCounters is the atomically shared tally across clients. Each
// counter sits on its own cache line: hundreds of clients bump these
// concurrently, and co-resident hot atomics would ping-pong the line.
type loadCounters struct {
	completed  int64
	_          [56]byte
	rejected   int64
	_          [56]byte
	rejRate    int64
	_          [56]byte
	rejQueue   int64
	_          [56]byte
	errors     int64
	_          [56]byte
	violations int64
	_          [56]byte
}

// RunLoad drives the load test and returns the report. ctx bounds the
// whole run (in addition to cfg.Duration).
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.URL == "" {
		return nil, errors.New("serviced: loadtest needs a URL")
	}
	if cfg.Clients < 1 {
		return nil, errors.New("serviced: loadtest needs at least one client")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("serviced: loadtest needs a positive duration")
	}
	if cfg.Tenants < 1 {
		cfg.Tenants = 1
	}
	if cfg.MaxRetryWait <= 0 {
		cfg.MaxRetryWait = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		tr := &http.Transport{
			MaxIdleConns:        cfg.Clients + 8,
			MaxIdleConnsPerHost: cfg.Clients + 8,
		}
		client = &http.Client{Transport: tr}
		defer tr.CloseIdleConnections()
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var (
		ctr      loadCounters
		mu       sync.Mutex
		sojourns []float64
		wg       sync.WaitGroup
	)
	start := time.Now()
	jobsURL := cfg.URL + "/v1/jobs"
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			spec := cfg.Spec
			spec.Tenant = fmt.Sprintf("t%d", id%cfg.Tenants)
			body, _ := json.Marshal(spec)
			rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
			scanbuf := make([]byte, 0, 4096) // reused across this client's streams
			var local []float64
			for ctx.Err() == nil {
				d, err := runOne(ctx, client, jobsURL, body, spec, scanbuf, &ctr)
				switch {
				case err == nil:
					atomic.AddInt64(&ctr.completed, 1)
					local = append(local, float64(d))
				case errors.Is(err, errRejected):
					// counters already bumped; wait was applied inside runOne
				case ctx.Err() != nil:
					// run over; an in-flight request dying on cancel is not a
					// service error
				default:
					atomic.AddInt64(&ctr.errors, 1)
				}
				if cfg.Think > 0 {
					pause := time.Duration(rng.ExpFloat64() * float64(cfg.Think))
					select {
					case <-time.After(pause):
					case <-ctx.Done():
					}
				}
			}
			mu.Lock()
			sojourns = append(sojourns, local...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Clients:            cfg.Clients,
		Tenants:            cfg.Tenants,
		Duration:           elapsed,
		Completed:          ctr.completed,
		Rejected:           ctr.rejected,
		RejectedRate:       ctr.rejRate,
		RejectedQueue:      ctr.rejQueue,
		Errors:             ctr.errors,
		ProtocolViolations: ctr.violations,
		Throughput:         float64(ctr.completed) / elapsed.Seconds(),
	}
	if len(sojourns) > 0 {
		sort.Float64s(sojourns)
		rep.MeanSojourn = time.Duration(stats.Mean(sojourns))
		rep.P50Sojourn = time.Duration(stats.Percentile(sojourns, 50))
		rep.P95Sojourn = time.Duration(stats.Percentile(sojourns, 95))
		rep.P99Sojourn = time.Duration(stats.Percentile(sojourns, 99))
		rep.MaxSojourn = time.Duration(sojourns[len(sojourns)-1])
	}

	// Pull the server's admission snapshot and re-run its model at the
	// achieved operating point.
	if st, err := fetchStats(context.Background(), client, cfg.URL); err == nil {
		rep.ServerStats = st
		mean := st.ServiceMean.Seconds()
		if mean > 0 && rep.Throughput > 0 && st.Sizing.Servers > 0 {
			mu := 1 / mean
			lambda := rep.Throughput
			// The model is undefined at/over capacity; clamp just under so
			// a saturated run still yields a (pessimistic) prediction.
			if cap := float64(st.Sizing.Servers) * mu; lambda >= cap {
				lambda = cap * 0.999
			}
			if m, err := queuing.AnalyzeMMC(lambda, mu, st.Sizing.Servers); err == nil {
				if q, err := m.SojournQuantile(0.99); err == nil {
					rep.ModeledP99 = time.Duration(q * float64(time.Second))
					if rep.ModeledP99 > 0 && st.SojournP99 > 0 {
						rep.ModelError = float64(st.SojournP99-rep.ModeledP99) / float64(rep.ModeledP99)
					}
				}
			}
		}
	}
	return rep, nil
}

// errRejected signals a handled 429/503 (already counted and waited).
var errRejected = errors.New("serviced: rejected")

// runOne submits one job and consumes its stream, returning the
// client-observed sojourn. Protocol violations (bad version, seq gaps,
// kind disorder, rep miscounts) bump ctr.violations.
func runOne(ctx context.Context, client *http.Client, jobsURL string, body []byte, spec JobSpec, scanbuf []byte, ctr *loadCounters) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, jobsURL, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		atomic.AddInt64(&ctr.rejected, 1)
		wait := rejectionWait(resp, ctr)
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		return 0, errRejected
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, fmt.Errorf("serviced: unexpected status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}

	// Stream validation state: seq must increment from 1 without gaps,
	// kinds must run accepted -> started -> progress* -> result, and the
	// progress reps must count 1..Reps.
	var (
		lastSeq   uint64
		sawResult bool
		nextRep   = 1
		violation = func() { atomic.AddInt64(&ctr.violations, 1) }
	)
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(scanbuf, 1<<20)
	scanner.Split(splitSSEFrames)
	for scanner.Scan() {
		ev, err := ParseSSEFrame(scanner.Bytes())
		if err != nil {
			violation()
			continue
		}
		if ev.V != SchemaVersion {
			violation()
		}
		if ev.Seq != lastSeq+1 {
			violation()
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case KindAccepted:
			if ev.Seq != 1 || ev.Queue == nil {
				violation()
			}
		case KindStarted:
			if ev.Seq != 2 {
				violation()
			}
		case KindProgress:
			if ev.Rep == nil || ev.Rep.Rep != nextRep {
				violation()
			}
			nextRep++
		case KindResult:
			if ev.Result == nil || ev.Result.Reps != spec.Reps || nextRep != spec.Reps+1 {
				violation()
			}
			sawResult = true
		case KindError:
			return 0, errors.New("serviced: job failed: " + ev.Message)
		default:
			// Unknown kinds are forward-compatible, not violations.
		}
	}
	if err := scanner.Err(); err != nil {
		return 0, err
	}
	if !sawResult {
		violation()
		return 0, errors.New("serviced: stream ended without a result")
	}
	return time.Since(t0), nil
}

// rejectionWait extracts the backpressure horizon from a 429/503:
// the JSON body's retry_after_ms when parseable, else one second.
func rejectionWait(resp *http.Response, ctr *loadCounters) time.Duration {
	wait := time.Second
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if ev, err := DecodeEvent(bytes.TrimSpace(body)); err == nil && ev.Reject != nil {
		switch ev.Reject.Reason {
		case ReasonRate:
			atomic.AddInt64(&ctr.rejRate, 1)
		case ReasonQueue:
			atomic.AddInt64(&ctr.rejQueue, 1)
		}
		if ev.Reject.RetryAfterMS > 0 {
			wait = time.Duration(ev.Reject.RetryAfterMS) * time.Millisecond
		}
	}
	if wait > 2*time.Second {
		wait = 2 * time.Second
	}
	return wait
}

// fetchStats GETs /v1/stats.
func fetchStats(ctx context.Context, client *http.Client, base string) (*ServiceStats, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serviced: stats status %d", resp.StatusCode)
	}
	var st ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// splitSSEFrames is a bufio.SplitFunc cutting the stream at blank-line
// frame terminators ("\n\n", tolerating \r\n line endings).
func splitSSEFrames(data []byte, atEOF bool) (advance int, token []byte, err error) {
	for i := 0; i+1 < len(data); i++ {
		if data[i] != '\n' {
			continue
		}
		j := i + 1
		if data[j] == '\r' && j+1 < len(data) {
			j++
		}
		if j < len(data) && data[j] == '\n' {
			return j + 1, data[:i], nil
		}
	}
	if atEOF && len(bytes.TrimSpace(data)) > 0 {
		return len(data), data, nil
	}
	if atEOF {
		return len(data), nil, nil
	}
	return 0, nil, nil
}
