// Package flight is the toolbox's black box: an always-on, bounded,
// in-memory recorder that continuously captures what every producer —
// sched regions, GPU launches, cluster events, profiler spans, runtime
// collector samples — was doing, and drains the recent past into a
// fully valid obs.Session the moment something goes wrong.
//
// The course's process says "measure first", but a latency objective
// violated at 3am is measured by whatever was running *then*, not by a
// trace someone remembers to start afterwards. The recorder's contract
// is therefore shaped like an aircraft flight recorder:
//
//   - Bounded: a fixed ring per stripe, overwrite-oldest. Memory is
//     capacity × sizeof(Record), decided at construction, forever.
//   - Near-zero overhead: the record path is 0 allocs/op (enforced by
//     an AllocsPerRun gate) — one stripe mutex, one struct copy. The
//     stripes are cache-line padded and indexed by the same
//     goroutine-stack hash internal/telemetry stripes with, so
//     concurrent producers rarely share a lock or a line. A mutex
//     rather than a seqlock for the same reason internal/sched's deque
//     holds one: it buys an exact memory model — race-detector-clean —
//     for a critical section of a dozen nanoseconds.
//   - Disabled is near-free: every method no-ops on a nil *Recorder,
//     the package-level Active() handle is one atomic load, and the
//     producer sink constructors (adapters.go) return nil for a nil
//     recorder, which a producer hook ignores: a producer with no
//     sink attached pays one atomic load per event.
//
// The SLO engine (slo.go) layers named latency objectives on
// internal/telemetry histograms and, on violation, links the objective
// to the exemplar span retained behind the histogram's extreme
// observation — the drained session then carries the exact interval
// that blew the budget, on an "slo" track, next to everything else the
// process was doing.
package flight

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"perfeng/internal/obs"
	"perfeng/internal/telemetry"
)

func maxProcs() int { return runtime.GOMAXPROCS(0) }

// Kind discriminates record types.
type Kind uint8

// Record kinds.
const (
	// KindSpan is a completed interval on a track.
	KindSpan Kind = iota
	// KindInstant is a zero-duration marker on a track.
	KindInstant
	// KindSample is one point of a named counter series.
	KindSample
)

// Record is one captured event. It is a flat value type — strings are
// header copies of the producer's (interned) names, so recording one
// never allocates. Detail optionally refines Name; the drain joins them
// as "Name/Detail" so hot paths never concatenate.
type Record struct {
	Kind Kind
	// Track names the timeline lane (spans and instants); samples use
	// Name as the series name and ignore Track.
	Track  string
	Name   string
	Detail string
	// Start and Dur position the record as offsets on the recorder's
	// timeline (offsets from Epoch; Dur is zero for instants/samples).
	Start, Dur time.Duration
	// Value carries the sample value (samples) or optional metadata
	// (spans; zero means none).
	Value float64
}

// numStripes mirrors internal/telemetry's shard count: the next power
// of two ≥ GOMAXPROCS, capped at 64.
var numStripes = func() int {
	n := 1
	for n < maxProcs() {
		n *= 2
	}
	if n > 64 {
		n = 64
	}
	return n
}()

// stripeIndex hashes the goroutine's stack address into a stripe — the
// telemetry trick: distinct goroutines live on distinct stacks, the
// pointer is consumed as an integer so it never escapes.
func stripeIndex() int {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b))) * 0x9E3779B97F4A7C15
	return int(h>>33) & (numStripes - 1)
}

// stripe is one ring. The pad keeps the mutex and ring header of
// adjacent stripes on distinct cache lines; the buffers themselves are
// separate allocations.
type stripe struct {
	mu   sync.Mutex
	buf  []Record
	next uint64 // records ever written; buf[next%len] is the write slot
	_    [64]byte
}

// Recorder is the bounded black box. All methods are safe for
// concurrent use and no-op on a nil receiver.
type Recorder struct {
	epoch   time.Time
	stripes []stripe
}

// DefaultCapacity is the total record capacity NewRecorder uses when
// given a non-positive one: at 88 bytes per record, about 1.4 MiB.
const DefaultCapacity = 1 << 14

// NewRecorder builds a recorder holding at most capacity records in
// total (rounded up to fill the stripes). The buffers are allocated
// here, once; the record path never grows them.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + numStripes - 1) / numStripes
	if per < 8 {
		per = 8
	}
	r := &Recorder{epoch: time.Now(), stripes: make([]stripe, numStripes)}
	for i := range r.stripes {
		r.stripes[i].buf = make([]Record, per)
	}
	return r
}

// Epoch returns the recorder's timeline origin.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Now returns the current offset on the recorder's timeline.
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// At converts a wall-clock timestamp (monotonic-carrying, from
// time.Now) to a timeline offset, clamping times before the epoch.
func (r *Recorder) At(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	d := t.Sub(r.epoch)
	if d < 0 {
		return 0
	}
	return d
}

// Record appends rec to the calling goroutine's stripe, overwriting the
// stripe's oldest record when full. This is the hot path: 0 allocs/op,
// one short critical section.
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	s := &r.stripes[stripeIndex()]
	s.mu.Lock()
	s.buf[s.next%uint64(len(s.buf))] = rec
	s.next++
	s.mu.Unlock()
}

// RecordSpan captures a completed interval.
func (r *Recorder) RecordSpan(track, name, detail string, start, dur time.Duration) {
	r.Record(Record{Kind: KindSpan, Track: track, Name: name, Detail: detail, Start: start, Dur: dur})
}

// RecordInstant captures a zero-duration marker.
func (r *Recorder) RecordInstant(track, name string, at time.Duration) {
	r.Record(Record{Kind: KindInstant, Track: track, Name: name, Start: at})
}

// RecordSample captures one point of the named counter series.
func (r *Recorder) RecordSample(name string, at time.Duration, v float64) {
	r.Record(Record{Kind: KindSample, Name: name, Start: at, Value: v})
}

// Sample is a telemetry.Collector.Samples sink: every live runtime
// sample lands in the black box, stamped with the recorder's clock.
func (r *Recorder) Sample(s telemetry.Sample) {
	r.RecordSample(s.Name, r.Now(), s.Value)
}

// Len returns the number of records currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		held := s.next
		if held > uint64(len(s.buf)) {
			held = uint64(len(s.buf))
		}
		s.mu.Unlock()
		n += int(held)
	}
	return n
}

// Total returns the number of records ever written (Total-Len have been
// overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		n += s.next
		s.mu.Unlock()
	}
	return n
}

// Snapshot copies out every held record, ordered by Start offset.
// Recording continues concurrently; the snapshot is per-stripe
// consistent, which is all a black-box dump needs.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	out := make([]Record, 0, r.Len())
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		buf := s.buf
		n := uint64(len(buf))
		held := s.next
		if held > n {
			held = n
		}
		// Oldest first: the ring's logical order starts at next-held.
		for j := uint64(0); j < held; j++ {
			out = append(out, buf[(s.next-held+j)%n])
		}
		s.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// BuildSession drains the recorder into a fully valid obs.Session:
// spans and instants land on their named tracks at their recorded
// offsets, samples become counter series points. The session exports
// through the standard obs writers (Chrome trace, folded stacks)
// unchanged.
func (r *Recorder) BuildSession(name string) *obs.Session {
	s := obs.NewSession(name)
	for _, rec := range r.Snapshot() {
		switch rec.Kind {
		case KindSpan:
			n := rec.Name
			if rec.Detail != "" {
				n = rec.Name + "/" + rec.Detail
			}
			var args map[string]any
			if rec.Value != 0 {
				args = map[string]any{"value": rec.Value}
			}
			s.Track(rec.Track).AddSpanOffsets(n, nil, rec.Start, rec.Start+rec.Dur, args)
		case KindInstant:
			s.Track(rec.Track).InstantAt(rec.Name, rec.Start, nil)
		case KindSample:
			s.CounterSampleAt(rec.Name, rec.Start, rec.Value)
		}
	}
	return s
}

// active is the process-wide recorder producer wiring consults. One atomic
// load when disabled — the "always-on must cost nothing when off" rule.
var active atomic.Pointer[Recorder]

// Enable installs r as the process-wide recorder (nil disables).
func Enable(r *Recorder) {
	if r == nil {
		active.Store(nil)
		return
	}
	active.Store(r)
}

// Active returns the process-wide recorder, or nil when disabled —
// safe to use directly, since every Recorder method no-ops on nil.
func Active() *Recorder { return active.Load() }
