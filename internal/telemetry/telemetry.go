// Package telemetry is the toolbox's live metrics surface: a
// concurrency-safe registry of counters, gauges and histograms that is
// allocation-free on the hot path, cheap enough to leave compiled into
// production binaries, and scrapeable while workloads run.
//
// Where internal/obs records a bounded *session* (spans on a timeline,
// exported once at the end), telemetry holds *cumulative* state a
// monitoring system polls: the OpenMetrics exposition (openmetrics.go),
// the runtime collector (collector.go) and the embedded HTTP server
// (server.go) turn the registry into the always-on measurement
// infrastructure the course's "measure first" process asks for.
//
// Design constraints, in order:
//
//   - Hot path (Counter.Inc, Histogram.Observe) must be a few
//     nanoseconds and 0 allocs/op — it sits inside producer loops.
//   - Disabled must be near-free: every method is a no-op on a nil
//     receiver, so producers hold handles from a possibly-nil registry
//     and instrument unconditionally.
//   - Writers must not serialize: counters and histograms stripe their
//     state over cache-line-padded cells indexed by a per-goroutine
//     stack hint, so concurrent writers on different Ps do not bounce
//     one line (the geometry perfvet's falseshare analyzer checks).
//
// Handles are cheap pointers; look them up once (registration takes a
// lock, With allocates on first use per label set) and keep them.
package telemetry

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Kind discriminates the metric types of a family.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer (the OpenMetrics type names).
func (k Kind) String() string {
	return [...]string{"counter", "gauge", "histogram"}[k]
}

// numShards is the stripe count for counters and histograms: enough
// stripes that concurrent writers on different Ps rarely collide, capped
// so idle families stay small. Computed once; GOMAXPROCS changes after
// init only affect contention, not correctness.
var numShards = func() int {
	n := runtime.GOMAXPROCS(0)
	shards := 1
	for shards < n {
		shards *= 2
	}
	if shards > 64 {
		shards = 64
	}
	return shards
}()

// cell is one cache-line-padded stripe of a counter. The padding keeps
// adjacent stripes on distinct lines — without it, striping would buy
// nothing: every Add would still bounce the same line between cores.
type cell struct {
	n atomic.Uint64
	_ [56]byte
}

// shardIndex returns this goroutine's stripe. The hint is the address of
// a stack variable: distinct goroutines run on distinct stacks, so the
// multiplicative hash spreads concurrent writers over stripes, and the
// same goroutine hashes stably while its stack stays put. The pointer
// never escapes (it is consumed as an integer), so this is
// allocation-free — measured, and enforced by TestHotPathAllocs.
func shardIndex() int {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b))) * 0x9E3779B97F4A7C15
	return int(h>>33) & (numShards - 1)
}

// Counter is a monotonically increasing count of events. The zero state
// is sharded over padded cells; nil counters no-op.
type Counter struct {
	cells []cell
}

func newCounter() *Counter { return &Counter{cells: make([]cell, numShards)} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (counts only grow; use a Gauge for values that move
// both ways).
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.cells[shardIndex()].n.Add(delta)
}

// Value returns the current total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// Gauge is a value that can go up and down (queue depth, occupancy,
// bytes in use). Set is last-write-wins, so a gauge is a single atomic,
// not a striped sum. Nil gauges no-op.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

func newGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta via a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a distribution with exponential (log2) buckets: bucket i
// has upper bound 2^(minExp+i), closing with +Inf. Observation is O(1)
// — the bucket index comes straight from the float's exponent bits, no
// search — and the per-shard state keeps concurrent observers off each
// other's cache lines. Nil histograms no-op.
type Histogram struct {
	minExp int
	bounds []float64 // finite upper bounds, ascending; +Inf implied
	// counts is a shards × stride matrix of raw (non-cumulative) bucket
	// counts; stride is len(bounds)+1 (the +Inf overflow bucket) rounded
	// up to a cache line so shard rows do not share lines.
	counts []atomic.Uint64
	stride int
	sums   []sumCell

	// Exemplar state: the trace reference behind the largest observation
	// seen through ObserveExemplar. The fast path is one atomic load and
	// a compare; the lock is taken only when a new maximum arrives.
	exMax atomic.Uint64 // float64 bits of the retained exemplar's value
	_     [56]byte      // keep the hot exMax load off the lock word's cache line
	exMu  sync.Mutex
	ex    Exemplar
	exSet bool
}

// Exemplar links a histogram's extreme observation to the trace evidence
// behind it: a span on the flight-recorder timeline (track, name, start
// offset, duration). An SLO violation on the histogram can then point at
// the exact interval that caused it instead of a bare number.
type Exemplar struct {
	// Value is the observed value the exemplar annotates (seconds for
	// duration histograms).
	Value float64
	// Track and Name identify the span on the flight timeline.
	Track, Name string
	// Start and Dur position the span as offsets on the flight-recorder
	// timeline (the recorder's epoch, not the wall clock).
	Start, Dur time.Duration
}

// sumCell is a padded per-shard accumulator for the observation sum.
type sumCell struct {
	bits atomic.Uint64 // float64 bits, CAS-added
	_    [56]byte
}

func newHistogram(minExp, maxExp int) *Histogram {
	if maxExp < minExp {
		minExp, maxExp = maxExp, minExp
	}
	nb := maxExp - minExp + 1
	bounds := make([]float64, nb)
	for i := range bounds {
		bounds[i] = math.Ldexp(1, minExp+i)
	}
	stride := (nb + 1 + 7) &^ 7 // round to 8 uint64s = one 64B line
	h := &Histogram{
		minExp: minExp,
		bounds: bounds,
		counts: make([]atomic.Uint64, numShards*stride),
		stride: stride,
		sums:   make([]sumCell, numShards),
	}
	// -Inf so the first exemplar-carrying observation, whatever its
	// value, becomes the retained maximum.
	h.exMax.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps v to its raw bucket: values ≤ 2^minExp (including
// zero and negatives) land in bucket 0, (2^(e-1), 2^e] lands in bucket
// e-minExp, anything above the last bound in the +Inf bucket.
func (h *Histogram) bucketIndex(v float64) int {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 { // negative (incl. -0): below every bound
		return 0
	}
	exp := int(bits>>52&0x7FF) - 1023
	frac := bits & (1<<52 - 1)
	idx := exp - h.minExp
	if frac != 0 {
		idx++ // strictly above 2^exp, belongs to the next bound
	}
	if idx < 0 {
		return 0
	}
	if idx > len(h.bounds) {
		return len(h.bounds) // +Inf bucket (also where +Inf and NaN land)
	}
	return idx
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	shard := shardIndex()
	h.counts[shard*h.stride+h.bucketIndex(v)].Add(1)
	s := &h.sums[shard]
	for {
		old := s.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration is shorthand for recording a duration in seconds.
func (h *Histogram) ObserveDuration(seconds float64) { h.Observe(seconds) }

// ObserveExemplar records v and, when v is the largest value the
// histogram has seen through this method, retains ex as the histogram's
// exemplar. The common case — v is not a new maximum — adds one atomic
// load and a compare to Observe and allocates nothing; only a fresh
// maximum takes the exemplar lock.
func (h *Histogram) ObserveExemplar(v float64, ex Exemplar) {
	if h == nil {
		return
	}
	h.Observe(v)
	if v <= math.Float64frombits(h.exMax.Load()) {
		return
	}
	h.exMu.Lock()
	if v > math.Float64frombits(h.exMax.Load()) {
		h.exMax.Store(math.Float64bits(v))
		h.ex = ex
		h.exSet = true
	}
	h.exMu.Unlock()
}

// Exemplar returns the trace reference behind the histogram's largest
// exemplar-carrying observation, and whether one has been recorded.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	if h == nil {
		return Exemplar{}, false
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.ex, h.exSet
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	_, _, count := h.snapshot()
	return count
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the log2
// buckets. The rank convention follows internal/stats.Percentile: the
// fractional rank is q*(count-1), and the estimate interpolates linearly
// between that rank's neighbors — here under the assumption that a
// bucket's members are evenly spread from its lower to its upper bound
// (the only assumption a bucketed sketch can make). The first bucket's
// lower bound is 0; ranks landing in the +Inf bucket clamp to the last
// finite bound. Returns NaN for an empty (or nil) histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	cum, _, count := h.snapshot()
	if count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count-1)
	// First bucket whose cumulative count exceeds the rank holds the
	// rank's observation (cumulative counts index one past the last
	// member rank).
	i := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) > rank })
	if i == len(cum) { // defensive: rank <= count-1 < cum[last]
		i = len(cum) - 1
	}
	var lower float64
	if i > 0 {
		lower = h.bounds[i-1]
	}
	if i >= len(h.bounds) {
		// +Inf bucket: no finite upper bound to interpolate toward.
		return h.bounds[len(h.bounds)-1]
	}
	upper := h.bounds[i]
	var prev uint64
	if i > 0 {
		prev = cum[i-1]
	}
	n := cum[i] - prev // members in this bucket; > 0 by bucket choice
	if n == 1 {
		// A single member is assumed mid-bucket — the unbiased guess.
		return lower + (upper-lower)/2
	}
	frac := (rank - float64(prev)) / float64(n-1)
	return lower + (upper-lower)*frac
}

// snapshot returns cumulative bucket counts (one per finite bound, plus
// +Inf last), the observation sum, and the total count.
func (h *Histogram) snapshot() (cumulative []uint64, sum float64, count uint64) {
	if h == nil {
		return nil, 0, 0
	}
	raw := make([]uint64, len(h.bounds)+1)
	counts := h.counts
	for s := 0; s < numShards; s++ {
		row := s * h.stride
		for i := range raw {
			raw[i] += counts[row+i].Load()
		}
		sum += math.Float64frombits(h.sums[s].bits.Load())
	}
	cumulative = raw
	var running uint64
	for i := range cumulative {
		running += cumulative[i]
		cumulative[i] = running
	}
	return cumulative, sum, running
}

// family is one named metric family: a kind, label names, and one
// series per label-value combination.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	minExp     int // histogram bucket range
	maxExp     int

	mu     sync.Mutex
	keys   []string // series insertion order
	series map[string]*series
}

type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
}

// appendLabelKey appends the series map key of label values to b: the
// values joined by 0x1F (unit separator), which cannot collide with
// escaped text boundaries in practice; values containing it still map
// consistently.
func appendLabelKey(b []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			b = append(b, 0x1F)
		}
		b = append(b, v...)
	}
	return b
}

// get returns the series for the label values, creating it on first use.
// The key is built in a stack buffer, and the lookup does not copy it
// into a string, so creating a series is the only allocating step.
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: %s expects %d label value(s), got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	var stack [64]byte
	key := appendLabelKey(stack[:0], labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[string(key)]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), labelValues...)}
	switch f.kind {
	case KindCounter:
		s.counter = newCounter()
	case KindGauge:
		s.gauge = newGauge()
	case KindHistogram:
		s.histogram = newHistogram(f.minExp, f.maxExp)
	}
	k := string(key)
	f.keys = append(f.keys, k)
	f.series[k] = s
	return s
}

// Registry holds metric families. The zero value is not usable; a nil
// *Registry is the documented disabled state: every lookup returns a
// nil handle whose methods no-op, so "telemetry off" costs one nil
// check per operation.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register returns the named family, creating it if new and diagnosing
// conflicting re-registration (same name, different shape) — a
// programming error, reported eagerly.
func (r *Registry) register(name, help string, kind Kind, labelNames []string, minExp, maxExp int) *family {
	validateName(name)
	for _, l := range labelNames {
		validateName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || !equalStrings(f.labelNames, labelNames) ||
			(kind == KindHistogram && (f.minExp != minExp || f.maxExp != maxExp)) {
			panic(fmt.Sprintf("telemetry: %s re-registered with a different kind, labels or buckets", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		minExp:     minExp, maxExp: maxExp,
		series: make(map[string]*series),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func validateName(name string) {
	if name == "" {
		panic("telemetry: empty metric or label name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric or label name %q", name))
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the unlabeled counter with the name, creating it on
// first use. Counter names take an implicit _total suffix in the
// exposition; register the name without it.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindCounter, nil, 0, 0).get(nil).counter
}

// Gauge returns the unlabeled gauge with the name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindGauge, nil, 0, 0).get(nil).gauge
}

// Histogram returns the unlabeled histogram with the name and log2
// buckets 2^minExp .. 2^maxExp (+Inf implied). For durations in
// seconds, minExp -30 (≈1ns) and maxExp 4 (16s) cover the toolbox's
// operating range.
func (r *Registry) Histogram(name, help string, minExp, maxExp int) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindHistogram, nil, minExp, maxExp).get(nil).histogram
}

// CounterFamily declares a labeled counter family.
func (r *Registry) CounterFamily(name, help string, labelNames ...string) *CounterFamily {
	if r == nil {
		return nil
	}
	return &CounterFamily{f: r.register(name, help, KindCounter, labelNames, 0, 0)}
}

// GaugeFamily declares a labeled gauge family.
func (r *Registry) GaugeFamily(name, help string, labelNames ...string) *GaugeFamily {
	if r == nil {
		return nil
	}
	return &GaugeFamily{f: r.register(name, help, KindGauge, labelNames, 0, 0)}
}

// HistogramFamily declares a labeled histogram family with log2 buckets
// 2^minExp .. 2^maxExp.
func (r *Registry) HistogramFamily(name, help string, minExp, maxExp int, labelNames ...string) *HistogramFamily {
	if r == nil {
		return nil
	}
	return &HistogramFamily{f: r.register(name, help, KindHistogram, labelNames, minExp, maxExp)}
}

// CounterFamily is a counter per label-value combination.
type CounterFamily struct{ f *family }

// With returns the counter for the label values, creating it on first
// use. Cache the handle: With takes the family lock and allocates on a
// new label set; Inc/Add on the handle do not.
func (cf *CounterFamily) With(labelValues ...string) *Counter {
	if cf == nil {
		return nil
	}
	return cf.f.get(labelValues).counter
}

// GaugeFamily is a gauge per label-value combination.
type GaugeFamily struct{ f *family }

// With returns the gauge for the label values (see CounterFamily.With).
func (gf *GaugeFamily) With(labelValues ...string) *Gauge {
	if gf == nil {
		return nil
	}
	return gf.f.get(labelValues).gauge
}

// HistogramFamily is a histogram per label-value combination.
type HistogramFamily struct{ f *family }

// With returns the histogram for the label values (see
// CounterFamily.With).
func (hf *HistogramFamily) With(labelValues ...string) *Histogram {
	if hf == nil {
		return nil
	}
	return hf.f.get(labelValues).histogram
}

// find looks a series up without creating anything: nil when the family
// does not exist, is a different kind, or the series has not been
// instantiated. This is the read-side counterpart of register/get for
// consumers (the SLO engine) that watch metrics some producer may or may
// not have registered yet.
func (r *Registry) find(name string, kind Kind, labelValues []string) *series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f, ok := r.byName[name]
	r.mu.Unlock()
	if !ok || f.kind != kind || len(labelValues) != len(f.labelNames) {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var stack [64]byte
	return f.series[string(appendLabelKey(stack[:0], labelValues))]
}

// FindHistogram returns the histogram series with the name and label
// values, or nil when no producer has registered it (yet).
func (r *Registry) FindHistogram(name string, labelValues ...string) *Histogram {
	if s := r.find(name, KindHistogram, labelValues); s != nil {
		return s.histogram
	}
	return nil
}

// FindGauge returns the gauge series with the name and label values, or
// nil when no producer has registered it (yet).
func (r *Registry) FindGauge(name string, labelValues ...string) *Gauge {
	if s := r.find(name, KindGauge, labelValues); s != nil {
		return s.gauge
	}
	return nil
}

// Bucket is one cumulative histogram bucket of a snapshot.
type Bucket struct {
	// UpperBound is the inclusive upper bound (le); +Inf closes the
	// histogram.
	UpperBound float64
	// CumulativeCount counts observations ≤ UpperBound.
	CumulativeCount uint64
}

// SeriesSnapshot is one series' state at snapshot time.
type SeriesSnapshot struct {
	// LabelValues aligns with the family's LabelNames.
	LabelValues []string
	// Value is the counter total or gauge value (unused for histograms).
	Value float64
	// Buckets, Sum and Count describe a histogram series.
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// FamilySnapshot is one family's state at snapshot time.
type FamilySnapshot struct {
	Name       string
	Help       string
	Kind       Kind
	LabelNames []string
	Series     []SeriesSnapshot
}

// Snapshot returns a consistent-enough copy of every family for
// exposition: families in registration order, series sorted by label
// values. Counters and histogram buckets are read atomically per cell;
// the snapshot as a whole is not a point-in-time cut (writers keep
// writing), which is the standard scrape semantics.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{
			Name: f.name, Help: f.help, Kind: f.kind,
			LabelNames: append([]string(nil), f.labelNames...),
		}
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnapshot{LabelValues: append([]string(nil), s.labelValues...)}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.counter.Value())
			case KindGauge:
				ss.Value = s.gauge.Value()
			case KindHistogram:
				cum, sum, count := s.histogram.snapshot()
				ss.Sum, ss.Count = sum, count
				bounds := s.histogram.bounds
				buckets := make([]Bucket, len(cum))
				for i, c := range cum {
					ub := math.Inf(1)
					if i < len(bounds) {
						ub = bounds[i]
					}
					buckets[i] = Bucket{UpperBound: ub, CumulativeCount: c}
				}
				ss.Buckets = buckets
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.Unlock()
		out = append(out, fs)
	}
	return out
}
