package serviced

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfeng/internal/telemetry"
)

// testService spins a Service over httptest with a synthetic runner.
func testService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Resolve == nil {
		cfg.Resolve = func(spec JobSpec) (Runner, error) {
			if spec.Kernel != "smoke" {
				return nil, errors.New("unknown kernel " + spec.Kernel)
			}
			return func(rep int) error {
				time.Sleep(200 * time.Microsecond)
				return nil
			}, nil
		}
	}
	if cfg.Admission.Servers == 0 {
		cfg.Admission = AdmissionConfig{
			Servers:            2,
			TargetP99:          2 * time.Second,
			InitialMeanService: time.Millisecond,
		}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return svc, srv
}

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) *http.Response {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream consumes an SSE response into its events.
func readStream(t *testing.T, body io.Reader) []Event {
	t.Helper()
	scanner := bufio.NewScanner(body)
	scanner.Buffer(make([]byte, 0, 4096), 1<<20)
	scanner.Split(splitSSEFrames)
	var events []Event
	for scanner.Scan() {
		ev, err := ParseSSEFrame(scanner.Bytes())
		if err != nil {
			t.Fatalf("bad frame %q: %v", scanner.Bytes(), err)
		}
		events = append(events, ev)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestServiceStreamsFullJob(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, srv := testService(t, Config{Registry: reg})

	resp := postJob(t, srv, JobSpec{Tenant: "acme", Kernel: "smoke", Reps: 3})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readStream(t, resp.Body)
	wantKinds := []Kind{KindAccepted, KindStarted, KindProgress, KindProgress, KindProgress, KindResult}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(wantKinds), events)
	}
	for i, ev := range events {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind %q, want %q", i, ev.Kind, wantKinds[i])
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.V != SchemaVersion || ev.Tenant != "acme" || ev.Job == "" {
			t.Fatalf("bad envelope on event %d: %+v", i, ev)
		}
	}
	res := events[len(events)-1].Result
	if res == nil || res.Kernel != "smoke" || res.Reps != 3 || res.MeanNS <= 0 || res.TotalNS < res.MeanNS {
		t.Fatalf("bad result payload: %+v", res)
	}

	if h := reg.FindHistogram("perfeng_serviced_sojourn_seconds"); h == nil || h.Count() == 0 {
		t.Fatal("sojourn histogram never observed")
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	_, srv := testService(t, Config{})

	resp := postJob(t, srv, JobSpec{Kernel: "nope"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kernel: status %d, want 400", resp.StatusCode)
	}

	r2, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want 400", r2.StatusCode)
	}

	r3, err := srv.Client().Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", r3.StatusCode)
	}
}

// TestServiceBackpressure wedges the executors and fills the queue:
// the next request must bounce with 429, a Retry-After header, and a
// decodable rejected event in the body.
func TestServiceBackpressure(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	cfg := Config{
		Resolve: func(spec JobSpec) (Runner, error) {
			return func(rep int) error {
				once.Do(started.Done)
				<-release
				return nil
			}, nil
		},
		Admission: AdmissionConfig{
			Servers:            1,
			TargetP99:          60 * time.Millisecond,
			InitialMeanService: 10 * time.Millisecond, // sizes a tiny queue
			FairShare:          1,
		},
	}
	svc, srv := testService(t, cfg)
	defer close(release)
	depth := svc.Admission().Sizing().QueueDepth

	// Park 1 running + depth queued jobs, leaving their streams open.
	var streams []*http.Response
	defer func() {
		for _, r := range streams {
			r.Body.Close()
		}
	}()
	for i := 0; i < 1+depth; i++ {
		resp := postJob(t, srv, JobSpec{Tenant: fmt.Sprintf("t%d", i), Kernel: "x"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("setup job %d: status %d", i, resp.StatusCode)
		}
		streams = append(streams, resp)
	}
	started.Wait() // executor is definitely wedged

	resp := postJob(t, srv, JobSpec{Tenant: "late", Kernel: "x"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q not a positive integer", ra)
	}
	body, _ := io.ReadAll(resp.Body)
	ev, err := DecodeEvent(bytes.TrimSpace(body))
	if err != nil {
		t.Fatalf("429 body not a decodable event: %v (%q)", err, body)
	}
	if ev.Kind != KindRejected || ev.Reject == nil || ev.Reject.Reason != ReasonQueue {
		t.Fatalf("bad rejection event: %+v", ev)
	}
	if ev.Reject.RetryAfterMS <= 0 {
		t.Fatalf("rejection carries no retry horizon: %+v", ev.Reject)
	}
}

// TestServiceExactlyOnceUnderContention hammers a small service with
// concurrent clients and reconciles runner executions against result
// events and the admission ledger: every admitted job runs exactly
// once, nothing is lost, nothing runs twice.
func TestServiceExactlyOnceUnderContention(t *testing.T) {
	var runs atomic.Int64
	cfg := Config{
		Resolve: func(spec JobSpec) (Runner, error) {
			return func(rep int) error {
				runs.Add(1)
				return nil
			}, nil
		},
		Admission: AdmissionConfig{
			Servers:            2,
			TargetP99:          time.Second,
			InitialMeanService: 500 * time.Microsecond,
			FairShare:          2,
		},
	}
	svc, srv := testService(t, cfg)

	const clients = 16
	const perClient = 20
	var completed, rejected atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spec := JobSpec{Tenant: fmt.Sprintf("t%d", c%4), Kernel: "smoke", Reps: 1}
			body, _ := json.Marshal(spec)
			for i := 0; i < perClient; i++ {
				resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					events := readStream(t, resp.Body)
					if len(events) > 0 && events[len(events)-1].Kind == KindResult {
						completed.Add(1)
					}
				case http.StatusTooManyRequests:
					rejected.Add(1)
					io.Copy(io.Discard, resp.Body)
				default:
					t.Errorf("status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()

	st := svc.Admission().Stats()
	if completed.Load() == 0 {
		t.Fatal("nothing completed; test is vacuous")
	}
	if got := runs.Load(); got != completed.Load() {
		t.Fatalf("runner executed %d times for %d completed jobs", got, completed.Load())
	}
	if st.Admitted != uint64(completed.Load()) {
		t.Fatalf("admitted %d but %d streams completed", st.Admitted, completed.Load())
	}
	if st.Completions != st.Admitted {
		t.Fatalf("slots leaked: %d admitted, %d released", st.Admitted, st.Completions)
	}
	if st.Inflight != 0 {
		t.Fatalf("%d jobs still in flight after drain", st.Inflight)
	}
	if uint64(rejected.Load()) != st.RejectedRate+st.RejectedQueue {
		t.Fatalf("client rejections %d disagree with ledger %d+%d",
			rejected.Load(), st.RejectedRate, st.RejectedQueue)
	}
}

func TestServiceErrorEvent(t *testing.T) {
	cfg := Config{
		Resolve: func(spec JobSpec) (Runner, error) {
			return func(rep int) error {
				if rep == 2 {
					return errors.New("boom at rep 2")
				}
				return nil
			}, nil
		},
	}
	_, srv := testService(t, cfg)
	resp := postJob(t, srv, JobSpec{Kernel: "x", Reps: 3})
	defer resp.Body.Close()
	events := readStream(t, resp.Body)
	last := events[len(events)-1]
	if last.Kind != KindError || last.Message != "boom at rep 2" {
		t.Fatalf("want terminal error event, got %+v", last)
	}
	// rep 1 succeeded, so exactly one progress event precedes the error
	var progress int
	for _, ev := range events {
		if ev.Kind == KindProgress {
			progress++
		}
	}
	if progress != 1 {
		t.Fatalf("%d progress events before the error, want 1", progress)
	}
}

func TestServiceStatsEndpoint(t *testing.T) {
	_, srv := testService(t, Config{})
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st AdmissionStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sizing.Servers != 2 || st.Sizing.Lambda <= 0 {
		t.Fatalf("stats sizing looks wrong: %+v", st.Sizing)
	}
}

func TestServiceCloseRejects(t *testing.T) {
	svc, srv := testService(t, Config{})
	svc.Close()
	resp := postJob(t, srv, JobSpec{Kernel: "smoke"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed service: status %d, want 503", resp.StatusCode)
	}
}

// gatedWriter is a ResponseWriter that records every Write and Flush
// and holds its second Flush until gate closes, closing held when that
// Flush begins. The first Flush is the accepted event's, which the
// handler sends before it enqueues the job; the second is that of the
// first batch the executor produced.
type gatedWriter struct {
	header     http.Header
	held, gate chan struct{}

	mu      sync.Mutex
	writes  [][]byte
	flushes []int // len(writes) at each Flush
}

func (g *gatedWriter) Header() http.Header { return g.header }
func (g *gatedWriter) WriteHeader(int)     {}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (g *gatedWriter) Flush() {
	g.mu.Lock()
	g.flushes = append(g.flushes, len(g.writes))
	second := len(g.flushes) == 2
	g.mu.Unlock()
	if second {
		close(g.held)
		<-g.gate
	}
}

// TestServiceBatchesReadyEvents: rep 1 waits until the handler is
// held in the Flush of the started event, and the test releases that
// Flush only once the executor has finished the job and closed its
// channel. Every later event is then ready at once and must go out as
// exactly one Write and one Flush, byte for byte the frames the handler
// would have written one at a time, while events_sent still counts
// events, not writes.
func TestServiceBatchesReadyEvents(t *testing.T) {
	const reps = 4
	w := &gatedWriter{header: http.Header{}, held: make(chan struct{}), gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	svc, err := New(Config{
		Registry: reg,
		Resolve: func(spec JobSpec) (Runner, error) {
			return func(rep int) error {
				if rep == 1 {
					<-w.held
				}
				return nil
			}, nil
		},
		Admission: AdmissionConfig{Servers: 1, TargetP99: 2 * time.Second,
			InitialMeanService: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	body, _ := json.Marshal(JobSpec{Tenant: "acme", Kernel: "x", Reps: reps})
	served := make(chan struct{})
	go func() {
		defer close(served)
		svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	}()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Admission().Stats().Completions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the job never completed")
		}
		time.Sleep(time.Millisecond)
	}
	close(w.gate)
	<-served

	if len(w.writes) != 3 || fmt.Sprint(w.flushes) != "[1 2 3]" {
		t.Fatalf("%d writes, flushes after writes %v; want accepted, started, then one batch, each flushed",
			len(w.writes), w.flushes)
	}
	events := readStream(t, bytes.NewReader(w.writes[2]))
	if len(events) != reps+1 {
		t.Fatalf("batch holds %d events, want %d progress and the result: %+v", len(events), reps, events)
	}
	var oneAtATime []byte
	for i := range events {
		want := KindProgress
		if i == reps {
			want = KindResult
		}
		if events[i].Kind != want || events[i].Seq != uint64(i+3) {
			t.Fatalf("batch event %d is %s seq %d, want %s seq %d", i, events[i].Kind, events[i].Seq, want, i+3)
		}
		oneAtATime = append(oneAtATime, AppendSSE(nil, &events[i])...)
	}
	if !bytes.Equal(w.writes[2], oneAtATime) {
		t.Fatalf("batch bytes differ from its frames written one at a time:\n%q\n%q", w.writes[2], oneAtATime)
	}
	sent := reg.Counter("perfeng_serviced_events_sent", "").Value()
	if want := uint64(reps + 3); sent != want {
		t.Fatalf("events_sent = %d after %d writes, want %d events", sent, len(w.writes), want)
	}
}

// TestServiceStreamsEachEventWithoutWaiting: rep 2 does not start until
// the client has read progress 1, so a handler that held an event back
// for a later one would stall the job, and rep 2 would report it.
func TestServiceStreamsEachEventWithoutWaiting(t *testing.T) {
	readRep1 := make(chan struct{})
	cfg := Config{
		Resolve: func(spec JobSpec) (Runner, error) {
			return func(rep int) error {
				if rep != 2 {
					return nil
				}
				select {
				case <-readRep1:
					return nil
				case <-time.After(10 * time.Second):
					return errors.New("progress 1 never reached the client")
				}
			}, nil
		},
	}
	_, srv := testService(t, cfg)
	resp := postJob(t, srv, JobSpec{Kernel: "x", Reps: 3})
	defer resp.Body.Close()

	scanner := bufio.NewScanner(resp.Body)
	scanner.Split(splitSSEFrames)
	var kinds []Kind
	for scanner.Scan() {
		ev, err := ParseSSEFrame(scanner.Bytes())
		if err != nil {
			t.Fatalf("bad frame %q: %v", scanner.Bytes(), err)
		}
		if ev.Kind == KindError {
			t.Fatalf("job failed: %s", ev.Message)
		}
		kinds = append(kinds, ev.Kind)
		if ev.Kind == KindProgress && ev.Rep.Rep == 1 {
			close(readRep1)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindAccepted, KindStarted, KindProgress, KindProgress, KindProgress, KindResult}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("stream kinds %v, want %v", kinds, want)
	}
}
