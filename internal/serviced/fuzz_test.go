package serviced

import (
	"bytes"
	"encoding/json"
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

// handleJobsSeeds are FuzzHandleJobs's seed bodies.
func handleJobsSeeds() [][]byte {
	var seeds [][]byte
	for _, k := range fuzzKernels {
		seeds = append(seeds, []byte(`{"tenant":"t1","kernel":"`+k+`","n":64,"workers":2,"reps":2}`))
	}
	return append(seeds,
		[]byte(`{"tenant":"t1","kernel":"matmul","reps":1000000000}`),
		[]byte(`{"tenant":"t1","kernel":"spmv","n":-5}`),
		[]byte(`{"tenant":"","kernel":"fft"}`),
		[]byte(`{"kernel":"stencil","policy":"fail","reps":3}`),
		[]byte(`{"tenant":"t2","kernel":"panic","reps":2}`))
}

// FuzzHandleJobs posts hostile JobSpec bodies to a fresh Service per
// input, over a resolver that knows the built-in kernel names and a
// "panic" kernel whose every rep panics, rejects a negative n, and
// fails the job when the policy is "fail". Every response must be 200,
// 400 or 429; a 200 body must be SSE frames that ParseSSEFrame
// accepts, with seq counting up from 1 and exactly one terminal event,
// the last; and once the service is closed, every admitted job must
// have completed.
func FuzzHandleJobs(f *testing.F) {
	for _, b := range handleJobsSeeds() {
		f.Add(b)
	}
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

// testSpecs are the JobSpecs this package's tests post, and a few
// with a policy, negative numbers and strings json.Marshal escapes or
// leaves outside printable ASCII. Clients send them as json.Marshal
// writes them.
var testSpecs = []JobSpec{
	{Tenant: "acme", Kernel: "smoke", Reps: 3},
	{Kernel: "nope"},
	{Tenant: "t0", Kernel: "x"},
	{Tenant: "late", Kernel: "x"},
	{Tenant: "t3", Kernel: "smoke", Reps: 1},
	{Kernel: "x", Reps: 3},
	{Kernel: "panic", Reps: 3},
	{Kernel: "ok", Reps: 2},
	{Kernel: "smoke"},
	{Tenant: "acme", Kernel: "x", Reps: 4},
	{Kernel: "smoke", Reps: 2},
	{Kernel: "x", Reps: 1},
	{Tenant: "t1", Kernel: "histogram", N: 64, Workers: 1, Reps: 8},
	{Tenant: "t7", Kernel: "spmv", N: 256, Workers: 1, Policy: "static", Reps: 1},
	{Tenant: "t-9", Kernel: "fft", N: -256, Workers: -1, Reps: -3},
	{Tenant: "<&>", Kernel: "x", N: 1 << 40, Reps: 64},
	{Tenant: "t1", Kernel: "caf\u00e9"},
}

// decodeJobSpecSeeds are FuzzDecodeJobSpec's seed bodies: every body
// this package's tests and FuzzHandleJobs send, and the shapes next to
// the canonical form that must fall back to encoding/json.
func decodeJobSpecSeeds() [][]byte {
	seeds := handleJobsSeeds()
	for _, spec := range testSpecs {
		b, _ := json.Marshal(spec)
		seeds = append(seeds, b)
	}
	canonical := []byte(`{"tenant":"t1","kernel":"fft","n":256,"workers":1,"reps":1}`)
	pad := bytes.Repeat([]byte(" "), maxJobSpecBytes+1)
	return append(seeds,
		[]byte("{"),
		[]byte(""),
		[]byte("   "),
		append(append([]byte(nil), canonical...), pad...),
		append(append([]byte(nil), pad...), canonical...),
		append(append([]byte(nil), canonical...), "garbage"...),
		append(append([]byte(nil), canonical...), canonical...),
		append([]byte(" "), canonical...),
		[]byte(`{"tenant":"t1","kernel":"fft","n":256,"workers":1,"reps":1`),
		[]byte(`{"tenant":"t1","kernel":"fft","n":256,"workers":1,"policy":"","reps":1}`),
		[]byte(`{"tenant":"t1","kernel":"fft","n":256,"workers":1,"policy":null,"reps":1}`),
		[]byte(`{"Tenant":"t1","kernel":"fft","n":256,"workers":1,"reps":1}`),
		[]byte(`{"tenant":"t\u0031","kernel":"fft","n":256,"workers":1,"reps":1}`),
		[]byte(`{"tenant":"t1","kernel":"fft","n":0256,"workers":1,"reps":1}`),
		[]byte(`{"tenant":"t1","kernel":"fft","n":-0,"workers":1,"reps":1}`),
		[]byte(`{"tenant":"t1","kernel":"fft","n":2.5,"workers":1,"reps":1}`),
		[]byte(`{"tenant":"t1","kernel":"fft","n":1e3,"workers":1,"reps":1}`),
		[]byte(`{"tenant":"t1","kernel":"fft","n":999999999999999999,"workers":1,"reps":1}`),
		[]byte(`{"tenant":"t1","kernel":"fft","n":99999999999999999999,"workers":1,"reps":1}`),
		[]byte(`{"tenant":"t1","kernel":"fft","n":-,"workers":1,"reps":1}`),
		[]byte(`{"tenant":"t1","kernel":"fft","n":"256","workers":1,"reps":1}`),
		[]byte("{\"tenant\":\"t\xff\",\"kernel\":\"fft\",\"n\":1,\"workers\":1,\"reps\":1}"),
		[]byte("{\"tenant\":\"t\t\",\"kernel\":\"fft\",\"n\":1,\"workers\":1,\"reps\":1}"),
		[]byte(`{"tenant":"t1","kernel":"fft","n":256,"workers":1,"reps":1,"reps":2}`),
		[]byte(`{"kernel":"fft","tenant":"t1","n":256,"workers":1,"reps":1}`),
		[]byte(`[]`),
		[]byte(`null`),
		[]byte(`7`))
}

// FuzzDecodeJobSpec checks decodeJobSpec against encoding/json, the
// reference it replaces on the request path: the same error or none,
// the same error text and the same JobSpec, for any body, including
// ones over the 64 KiB request bound and ones with data after the
// first value.
func FuzzDecodeJobSpec(f *testing.F) {
	for _, b := range decodeJobSpecSeeds() {
		f.Add(b)
	}
	var names internTable
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeJobSpec(body, &names)
		var want JobSpec
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%.200q: error %v, encoding/json's %v", body, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("%.200q: decoded %+v, encoding/json %+v", body, got, want)
		}
	})
}

// TestDecodeJobSpecCanonicalForm: what json.Marshal writes for the
// specs of this package's tests takes the one-pass path, not the
// fallback, so FuzzDecodeJobSpec compares the path the clients use.
func TestDecodeJobSpecCanonicalForm(t *testing.T) {
	var names internTable
	for _, spec := range testSpecs {
		b, _ := json.Marshal(spec)
		got, ok := decodeCanonicalJobSpec(b, &names)
		plain := true
		for _, c := range b {
			plain = plain && c >= 0x20 && c <= 0x7E && c != '\\'
		}
		if ok != plain || ok && got != spec {
			t.Errorf("%s: one-pass decode gives %+v, %v; want %+v, %v", b, got, ok, spec, plain)
		}
	}
}

// BenchmarkDecodeJobSpec decodes the canonical body perfbench's
// jobs-small clients send, and fails if that allocates.
func BenchmarkDecodeJobSpec(b *testing.B) {
	body := []byte(`{"tenant":"t3","kernel":"histogram","n":64,"workers":1,"reps":8}`)
	var names internTable
	decode := func() {
		if _, err := decodeJobSpec(body, &names); err != nil {
			b.Fatal(err)
		}
	}
	decode()
	if a := testing.AllocsPerRun(100, decode); a != 0 {
		b.Fatalf("decoding the canonical body allocates %v times, want 0", a)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		decode()
	}
}
