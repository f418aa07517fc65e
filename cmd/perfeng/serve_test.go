package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfeng"
	"perfeng/internal/obs"
	"perfeng/internal/telemetry"
)

// TestServeStackSmoke is the end-to-end serve exercise: build the full
// stack, run one workload iteration through it, and scrape the
// endpoints the way a monitoring system would.
func TestServeStackSmoke(t *testing.T) {
	st, err := newRunStack(stackConfig{cmd: "serve", addr: "127.0.0.1:0", interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := st.close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ts := httptest.NewServer(st.server.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	// Before any iteration: metrics serve fine, trace endpoints 404.
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics before workload: %d", code)
	}
	if code, _ := get("/trace.json"); code != http.StatusNotFound {
		t.Fatalf("/trace.json without session: %d, want 404", code)
	}

	// One workload iteration, the same path runServe's loop takes.
	app, err := perfeng.BuiltinApplication("matmul", 48, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.iterate("serve-test", app, 2, 48); err != nil {
		t.Fatal(err)
	}
	st.collector.SampleOnce()

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	fams, err := telemetry.ParseOpenMetrics(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scrape is not valid OpenMetrics: %v", err)
	}
	have := map[string]bool{}
	for _, f := range fams {
		have[f.Name] = true
	}
	// Every producer plus the runtime collector must be present.
	for _, name := range []string{
		"perfeng_runner_measurements",
		"perfeng_gpu_launches",
		"perfeng_cluster_events",
		"perfeng_simcache_accesses",
		"perfeng_queuing_runs",
		"perfeng_serve_iterations",
		"perfeng_collector_ticks",
		"go_sched_goroutines",
	} {
		if !have[name] {
			t.Errorf("scrape missing family %s", name)
		}
	}

	// The attached session now serves a valid Chrome trace.
	code, body = get("/trace.json")
	if code != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Fatalf("/trace.json: %d (traceEvents present: %v)", code, strings.Contains(body, "traceEvents"))
	}
	if code, body = get("/profile.folded"); code != http.StatusOK || body == "" {
		t.Fatalf("/profile.folded: %d", code)
	}
}

// TestServeFlightSLOViolation is the flight recorder's end-to-end
// acceptance path: an unsatisfiable iteration-latency objective is
// injected, one real workload iteration runs under the armed black box,
// and the violation must produce a flight dump whose trace.json
// round-trips through the Chrome-trace structs and contains (a) the
// span named by the violated objective and (b) the exemplar evidence
// span it points at, alongside drained producer records.
func TestServeFlightSLOViolation(t *testing.T) {
	dir := t.TempDir()
	const objective = "perfeng_serve_iteration_seconds.p99<1ns"
	st, err := newRunStack(stackConfig{
		cmd: "serve", addr: "127.0.0.1:0", interval: time.Second, slos: objective, dumpDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := st.close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	st.engine.Cooldown = 0

	app, err := perfeng.BuiltinApplication("matmul", 48, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.iterate("flight-slo-test", app, 2, 48); err != nil {
		t.Fatal(err)
	}

	// Any real iteration takes longer than 1ns, so the check violates.
	vs := st.engine.Check()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	if !vs[0].HasExemplar || vs[0].Exemplar.Name != "iteration" {
		t.Fatalf("violation lacks the iteration exemplar: %+v", vs[0])
	}

	// The onViolation callback wrote the dump; it must round-trip.
	data, err := os.ReadFile(filepath.Join(dir, "flight.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ct obs.ChromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("flight dump is not valid Chrome-trace JSON: %v", err)
	}
	found := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		found[ev.Name] = true
	}
	if !found[objective] {
		t.Fatalf("dump lacks the span named by the violated objective %q", objective)
	}
	if !found["iteration"] {
		t.Fatal("dump lacks the exemplar evidence span 'iteration'")
	}
	// The drained black box also carries producer records (the sched
	// sink ran during the workload's parallel phases).
	schedSpans := false
	for _, ev := range ct.TraceEvents {
		if strings.HasPrefix(ev.Name, "parfor/") {
			schedSpans = true
			break
		}
	}
	if !schedSpans {
		t.Fatal("dump carries no sched spans — producer sink not wired")
	}
	for _, name := range []string{"flight.profile.folded", "flight.critpath.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("dump file missing: %v", err)
		}
	}

	// The on-demand endpoint drains the same black box.
	ts := httptest.NewServer(st.server.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ct2 obs.ChromeTrace
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ct2) != nil || len(ct2.TraceEvents) == 0 {
		t.Fatalf("/debug/flight: %d, parseable=%v", resp.StatusCode, json.Unmarshal(body, &ct2) == nil)
	}
	if resp, err := ts.Client().Get(ts.URL + "/debug/flight.folded"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight.folded: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
}
