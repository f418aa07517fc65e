package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests", "Requests handled.")
	if got := c.Value(); got != 0 {
		t.Fatalf("fresh counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same name returns the same underlying series.
	c2 := reg.Counter("requests", "Requests handled.")
	c2.Inc()
	if got := c.Value(); got != 43 {
		t.Fatalf("re-lookup counter = %d, want 43", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth", "Queue depth.")
	g.Set(4.5)
	g.Add(-1.5)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	// Buckets: 2^-2=0.25, 0.5, 1, 2, 4, +Inf.
	h := reg.Histogram("latency", "Op latency.", -2, 2)
	for _, v := range []float64{0.1, 0.25, 0.3, 1.0, 3.0, 100.0, -5.0, 0} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	if count != 8 {
		t.Fatalf("count = %d, want 8", count)
	}
	wantSum := 0.1 + 0.25 + 0.3 + 1.0 + 3.0 + 100.0 + -5.0 + 0
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
	// ≤0.25: 0.1, 0.25, -5, 0 → 4. ≤0.5: +0.3 → 5. ≤1: +1.0 → 6.
	// ≤2: 6. ≤4: +3.0 → 7. +Inf: +100 → 8.
	want := []uint64{4, 5, 6, 6, 7, 8}
	if len(cum) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(cum), len(want))
	}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all %v)", i, cum[i], want[i], cum)
		}
	}
	// Cumulativity: le-bucket counts must be monotone, last == count.
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("buckets not monotone at %d: %v", i, cum)
		}
	}
	if cum[len(cum)-1] != count {
		t.Fatalf("+Inf bucket %d != count %d", cum[len(cum)-1], count)
	}
}

func TestHistogramBucketIndexEdges(t *testing.T) {
	h := newHistogram(-2, 2)
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {-1, 0}, {math.SmallestNonzeroFloat64, 0},
		{0.25, 0},        // exactly the first bound: inclusive
		{0.2500001, 1},   // just above
		{4, 4},           // exactly the last finite bound
		{4.0001, 5},      // overflow
		{math.Inf(1), 5}, // +Inf lands in the +Inf bucket
		{math.MaxFloat64, 5},
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLabeledFamilies(t *testing.T) {
	reg := NewRegistry()
	cf := reg.CounterFamily("events", "Events by kind.", "kind")
	cf.With("send").Add(3)
	cf.With("recv").Add(5)
	cf.With("send").Inc()
	if got := cf.With("send").Value(); got != 4 {
		t.Fatalf("send = %d, want 4", got)
	}
	snap := reg.Snapshot()
	if len(snap) != 1 || len(snap[0].Series) != 2 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	// Series sorted by label values: recv before send.
	if snap[0].Series[0].LabelValues[0] != "recv" || snap[0].Series[1].LabelValues[0] != "send" {
		t.Fatalf("series order: %+v", snap[0].Series)
	}
}

func TestWithArityPanics(t *testing.T) {
	reg := NewRegistry()
	cf := reg.CounterFamily("events", "", "kind")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	cf.With("a", "b")
}

func TestConflictingRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	reg.Gauge("x", "")
}

func TestNilRegistryNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("a", "")
	g := reg.Gauge("b", "")
	h := reg.Histogram("c", "", -10, 10)
	cf := reg.CounterFamily("d", "", "k")
	gf := reg.GaugeFamily("e", "", "k")
	hf := reg.HistogramFamily("f", "", -10, 10, "k")
	// Every call below must be a safe no-op.
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	cf.With("v").Inc()
	gf.With("v").Set(2)
	hf.With("v").Observe(3)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if snap := reg.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
	if err := reg.WriteOpenMetrics(io.Discard); err != nil {
		t.Fatalf("nil registry exposition: %v", err)
	}
}

// TestHotPathAllocs enforces the 0 allocs/op contract of the hot path —
// the property that lets producers instrument unconditionally.
func TestHotPathAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", -30, 4)
	lc := reg.CounterFamily("lc", "", "k").With("v")
	for name, f := range map[string]func(){
		"counter-inc":       func() { c.Inc() },
		"counter-add":       func() { c.Add(3) },
		"gauge-set":         func() { g.Set(1.5) },
		"gauge-add":         func() { g.Add(0.5) },
		"histogram-observe": func() { h.Observe(1.25e-6) },
		"labeled-inc":       func() { lc.Inc() },
		"nil-counter-inc":   func() { (*Counter)(nil).Inc() },
	} {
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestFamilyWithExistingSeriesAllocs: looking up a series that exists,
// as perfengd does per admitted job for its tenant, allocates nothing;
// only the first With of a label combination does.
func TestFamilyWithExistingSeriesAllocs(t *testing.T) {
	reg := NewRegistry()
	cf := reg.CounterFamily("admitted", "", "tenant")
	two := reg.GaugeFamily("g2", "", "a", "b")
	long := strings.Repeat("x", 100) // a key past the stack buffer
	cf.With("t3").Inc()
	cf.With(long).Inc()
	two.With("t3", "fft").Set(1)
	for name, f := range map[string]func(){
		"counter-family": func() { cf.With("t3").Inc() },
		"two-labels":     func() { two.With("t3", "fft").Add(1) },
		"find":           func() { reg.FindGauge("g2", "t3", "fft") },
	} {
		if a := testing.AllocsPerRun(1000, f); a != 0 {
			t.Errorf("%s: %v allocs per With of an existing series, want 0", name, a)
		}
	}
	if a := testing.AllocsPerRun(10, func() { cf.With(long) }); a > 1 {
		t.Errorf("long key: %v allocs per With of an existing series, want at most the key buffer's 1", a)
	}
	if n := cf.With("t3").Value(); n != 1002 {
		t.Errorf("t3 counted %v, want 1002", n)
	}
}

// TestConcurrentWritersAndScraper is the race-detector exercise: many
// writers on every metric type while a reader scrapes the exposition.
// Run under -race (CI does); the final totals also verify no lost
// updates across shards.
func TestConcurrentWritersAndScraper(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits", "")
	g := reg.Gauge("level", "")
	h := reg.Histogram("lat", "", -30, 4)
	cf := reg.CounterFamily("by_kind", "", "kind")
	kinds := []string{"a", "b", "c", "d"}
	for _, k := range kinds {
		cf.With(k) // pre-create so writers only touch the hot path
	}

	const writers = 8
	const perWriter = 5000
	stop := make(chan struct{})
	var readerWG, writerWG sync.WaitGroup
	readerWG.Add(1)
	go func() { // the scraping reader
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.WriteOpenMetrics(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			reg.Snapshot()
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			k := cf.With(kinds[w%len(kinds)])
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) * 1e-6)
				k.Inc()
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("lost updates: counter = %d, want %d", got, writers*perWriter)
	}
	_, _, count := h.snapshot()
	if count != writers*perWriter {
		t.Fatalf("lost observations: %d, want %d", count, writers*perWriter)
	}
	var byKind uint64
	for _, k := range kinds {
		byKind += cf.With(k).Value()
	}
	if byKind != writers*perWriter {
		t.Fatalf("labeled total = %d, want %d", byKind, writers*perWriter)
	}
}

func TestValidateNameRejects(t *testing.T) {
	for _, bad := range []string{"", "1abc", "has space", "dash-ed", "ünïcode"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", bad)
				}
			}()
			validateName(bad)
		}()
	}
	for _, good := range []string{"a", "perfeng_x_total", "A9_:z"} {
		validateName(good)
	}
}

func TestShardedCounterDistribution(t *testing.T) {
	// Not a correctness requirement — documents that Value sums every
	// stripe regardless of which stripe writers landed on.
	reg := NewRegistry()
	c := reg.Counter("striped", "")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("striped sum = %d, want 16000", got)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var reg *Registry
	c := reg.Counter("bench", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench", "", -30, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1.25e-6)
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var reg *Registry
	h := reg.Histogram("bench", "", -30, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1.25e-6)
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func ExampleRegistry() {
	reg := NewRegistry()
	reqs := reg.CounterFamily("myapp_requests", "Requests by route.", "route")
	reqs.With("/api").Add(2)
	reg.Gauge("myapp_queue_depth", "Jobs waiting.").Set(3)
	for _, f := range reg.Snapshot() {
		fmt.Println(f.Name, f.Kind)
	}
	// Output:
	// myapp_requests counter
	// myapp_queue_depth gauge
}
