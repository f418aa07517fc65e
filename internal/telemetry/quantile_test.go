package telemetry

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestQuantileSingleBucket: all observations inside one bucket — the
// estimate must stay within the bucket's bounds and hit them at the
// extremes (q=0 → lower, q=1 → upper, Percentile rank convention).
func TestQuantileSingleBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_single", "t", -4, 4)
	// Bucket (2^1, 2^2] = (2, 4].
	for i := 0; i < 100; i++ {
		h.Observe(3.0)
	}
	if got := h.Quantile(0); got != 2 {
		t.Fatalf("q=0: got %v, want lower bound 2", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("q=1: got %v, want upper bound 4", got)
	}
	if got := h.Quantile(0.5); got <= 2 || got >= 4 {
		t.Fatalf("q=0.5: got %v, want inside (2, 4)", got)
	}
}

// TestQuantileAcrossBuckets: a known split across two buckets must put
// low quantiles in the low bucket and high quantiles in the high one,
// monotonically.
func TestQuantileAcrossBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_split", "t", -4, 8)
	// 90 observations in (1, 2], 10 in (64, 128].
	for i := 0; i < 90; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100.0)
	}
	if got := h.Quantile(0.5); got > 2 {
		t.Fatalf("p50 = %v, want <= 2 (low bucket)", got)
	}
	if got := h.Quantile(0.99); got <= 64 || got > 128 {
		t.Fatalf("p99 = %v, want in (64, 128]", got)
	}
	prev := math.Inf(-1)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%v gives %v < %v", q, v, prev)
		}
		prev = v
	}
}

// TestQuantileEdgeCases: empty and nil histograms are NaN; a single
// observation lands mid-bucket; the +Inf bucket clamps to the last
// finite bound.
func TestQuantileEdgeCases(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_edge", "t", -2, 2)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram should give NaN")
	}
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Fatal("nil histogram should give NaN")
	}
	if nilH.Count() != 0 {
		t.Fatal("nil histogram count should be 0")
	}
	h.Observe(1.5) // bucket (1, 2]
	if got := h.Quantile(0.5); got != 1.5 {
		t.Fatalf("single observation: got %v, want mid-bucket 1.5", got)
	}
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	h2 := reg.Histogram("q_inf", "t", -2, 2)
	h2.Observe(1e9) // +Inf bucket
	if got := h2.Quantile(0.99); got != 4 {
		t.Fatalf("+Inf bucket: got %v, want last finite bound 4", got)
	}
}

// TestExemplar: the histogram retains the exemplar of its maximum
// observation, replaces it only for larger values, and the fast path
// stays allocation-free.
func TestExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ex_hist", "t", -30, 4)
	if _, ok := h.Exemplar(); ok {
		t.Fatal("fresh histogram should have no exemplar")
	}
	h.ObserveExemplar(0.010, Exemplar{Value: 0.010, Track: "host", Name: "fast", Dur: 10 * time.Millisecond})
	h.ObserveExemplar(0.050, Exemplar{Value: 0.050, Track: "host", Name: "slow", Dur: 50 * time.Millisecond})
	h.ObserveExemplar(0.020, Exemplar{Value: 0.020, Track: "host", Name: "mid", Dur: 20 * time.Millisecond})
	ex, ok := h.Exemplar()
	if !ok || ex.Name != "slow" || ex.Value != 0.050 {
		t.Fatalf("exemplar = %+v (ok=%v), want the 50ms 'slow' span", ex, ok)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3 (ObserveExemplar must also observe)", h.Count())
	}

	var nilH *Histogram
	nilH.ObserveExemplar(1, Exemplar{}) // must not panic
	if _, ok := nilH.Exemplar(); ok {
		t.Fatal("nil histogram cannot hold an exemplar")
	}

	// Steady state (not a new max) must not allocate.
	ex2 := Exemplar{Value: 0.001, Track: "bench", Name: "op", Dur: time.Millisecond}
	if a := testing.AllocsPerRun(1000, func() { h.ObserveExemplar(0.001, ex2) }); a != 0 {
		t.Fatalf("ObserveExemplar fast path allocates: %v allocs/op", a)
	}
}

// TestFindLookups: Find* return existing series without creating them,
// and nil on missing names, kind mismatches or label mismatches.
func TestFindLookups(t *testing.T) {
	reg := NewRegistry()
	if reg.FindHistogram("nope") != nil || reg.FindGauge("nope") != nil {
		t.Fatal("lookups on an empty registry must be nil")
	}
	h := reg.Histogram("find_h", "t", -4, 4)
	g := reg.Gauge("find_g", "t")
	reg.Counter("find_c", "t")
	if got := reg.FindHistogram("find_h"); got != h {
		t.Fatal("FindHistogram did not return the registered series")
	}
	if got := reg.FindGauge("find_g"); got != g {
		t.Fatal("FindGauge did not return the registered series")
	}
	if reg.FindHistogram("find_g") != nil || reg.FindGauge("find_c") != nil {
		t.Fatal("kind mismatches must return nil")
	}
	hf := reg.HistogramFamily("find_hf", "t", -4, 4, "k")
	if reg.FindHistogram("find_hf", "v") != nil {
		t.Fatal("uninstantiated labeled series must return nil")
	}
	want := hf.With("v")
	if got := reg.FindHistogram("find_hf", "v"); got != want {
		t.Fatal("labeled lookup did not return the instantiated series")
	}
	if reg.FindHistogram("find_hf") != nil {
		t.Fatal("label-arity mismatch must return nil")
	}
	var nilReg *Registry
	if nilReg.FindHistogram("x") != nil || nilReg.FindGauge("x") != nil {
		t.Fatal("nil registry lookups must be nil")
	}
}

// TestCollectorDerivedGauges: the steal-failure ratio and GC pause burn
// gauges derive from interval deltas — zero on the first pass, and the
// steal ratio reflects counter movement between passes.
func TestCollectorDerivedGauges(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, time.Second)
	c.SampleOnce()
	if v := reg.FindGauge("perfeng_sched_steal_failure_ratio").Value(); v != 0 {
		t.Fatalf("first pass steal ratio = %v, want 0", v)
	}
	if v := reg.FindGauge("go_gc_pause_burn_ratio").Value(); v != 0 {
		t.Fatalf("first pass gc burn = %v, want 0", v)
	}
	// Move the sched counters: 3 fails out of 4 attempts this interval.
	reg.Counter("perfeng_sched_steals", "t").Add(1)
	reg.Counter("perfeng_sched_steal_failures", "t").Add(3)
	c.SampleOnce()
	if v := reg.FindGauge("perfeng_sched_steal_failure_ratio").Value(); v != 0.75 {
		t.Fatalf("steal ratio = %v, want 0.75", v)
	}
	if v := reg.FindGauge("go_gc_pause_burn_ratio").Value(); v < 0 || v > 1 {
		t.Fatalf("gc burn ratio = %v, want within [0, 1]", v)
	}
	// No movement: ratio falls back to zero.
	c.SampleOnce()
	if v := reg.FindGauge("perfeng_sched_steal_failure_ratio").Value(); v != 0 {
		t.Fatalf("idle interval steal ratio = %v, want 0", v)
	}
}

// TestServerHandleFunc: extra routes registered before Handler() serve
// alongside the built-ins.
func TestServerHandleFunc(t *testing.T) {
	reg := NewRegistry()
	srv := NewServer("127.0.0.1:0", reg, nil)
	srv.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "flight-dump")
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "flight-dump" {
		t.Fatalf("/debug/flight: %d %q", resp.StatusCode, body)
	}
	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("built-in route broken after HandleFunc: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
}
