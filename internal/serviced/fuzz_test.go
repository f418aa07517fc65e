package serviced

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// FuzzParseSSEFrame checks that ParseSSEFrame never panics and that
// every frame it accepts re-encodes through AppendSSE and re-parses to
// the same event. Seeds are the wire frames of the golden vectors.
func FuzzParseSSEFrame(f *testing.F) {
	for _, v := range loadVectors(f) {
		f.Add([]byte(v.Wire))
	}
	// A kind with a newline once decoded, and its re-encoded frame
	// did not parse.
	f.Add([]byte("data: {\"v\":1,\"kind\":\"x\\ndata: {}\",\"seq\":1}\n\n"))
	f.Fuzz(func(t *testing.T, frame []byte) {
		e, err := ParseSSEFrame(frame)
		if err != nil {
			return
		}
		wire := AppendSSE(nil, &e)
		again, err := ParseSSEFrame(wire)
		if err != nil {
			t.Fatalf("%q: re-encoded frame %q does not parse: %v", frame, wire, err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatalf("%q: re-encoded frame %q parses to %+v, want %+v", frame, wire, again, e)
		}
	})
}

// fuzzKernels are the built-in kernel names perfeng serve resolves.
var fuzzKernels = []string{"bfs", "fft", "gameoflife", "histogram", "matmul",
	"pagerank", "spmv", "stencil", "wordle"}

// FuzzHandleJobs posts hostile JobSpec bodies to a fresh Service per
// input, over a resolver that knows the built-in kernel names and a
// "panic" kernel whose every rep panics, rejects a negative n, and
// fails the job when the policy is "fail". Every response must be 200,
// 400 or 429; a 200 body must be SSE frames that ParseSSEFrame
// accepts, with seq counting up from 1 and exactly one terminal event,
// the last; and once the service is closed, every admitted job must
// have completed.
func FuzzHandleJobs(f *testing.F) {
	for _, k := range fuzzKernels {
		f.Add([]byte(`{"tenant":"t1","kernel":"` + k + `","n":64,"workers":2,"reps":2}`))
	}
	f.Add([]byte(`{"tenant":"t1","kernel":"matmul","reps":1000000000}`))
	f.Add([]byte(`{"tenant":"t1","kernel":"spmv","n":-5}`))
	f.Add([]byte(`{"tenant":"","kernel":"fft"}`))
	f.Add([]byte(`{"kernel":"stencil","policy":"fail","reps":3}`))
	f.Add([]byte(`{"tenant":"t2","kernel":"panic","reps":2}`))
	known := map[string]bool{"panic": true}
	for _, k := range fuzzKernels {
		known[k] = true
	}
	resolve := func(spec JobSpec) (Runner, error) {
		if !known[spec.Kernel] || spec.N < 0 {
			return nil, fmt.Errorf("bad job %s n=%d", spec.Kernel, spec.N)
		}
		return func(rep int) error {
			if spec.Kernel == "panic" {
				panic("kernel bug")
			}
			if spec.Policy == "fail" {
				return errors.New("rep failed")
			}
			return nil
		}, nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		svc, err := New(Config{Resolve: resolve, Admission: AdmissionConfig{
			Servers: 1, TargetP99: time.Second, InitialMeanService: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		svc.Close()
		switch rec.Code {
		case http.StatusOK:
			events := readStream(t, rec.Body)
			terminal := 0
			for i, e := range events {
				if e.Seq != uint64(i+1) {
					t.Fatalf("%q: event %d has seq %d", body, i, e.Seq)
				}
				if e.Kind == KindResult || e.Kind == KindError {
					terminal++
				}
			}
			if terminal != 1 || (events[len(events)-1].Kind != KindResult && events[len(events)-1].Kind != KindError) {
				t.Fatalf("%q: %d terminal events in %+v, want one, last", body, terminal, events)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests:
		default:
			t.Fatalf("%q: status %d", body, rec.Code)
		}
		if st := svc.Admission().Stats(); st.Admitted != st.Completions {
			t.Fatalf("%q: %d admitted, %d completed", body, st.Admitted, st.Completions)
		}
	})
}
