package obs

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"perfeng/internal/cluster"
	"perfeng/internal/counters"
	"perfeng/internal/gpu"
	"perfeng/internal/machine"
	"perfeng/internal/profile"
	"perfeng/internal/sched"
)

// Adapters wiring the existing producers into one session timeline:
// profiler regions become spans, cluster ranks become tracks (keeping
// the material the Scalasca-style wait-state analysis runs on), counter
// event sets become sampled series, and SIMT kernel launches become
// device-track spans with occupancy metadata.

// Producer lane names. internal/flight's tees use the same functions,
// so a live session and a drained black box put each producer on the
// same track. Labels for the lanes a default-sized pool, device or
// world can name are interned once at init, keeping the per-task and
// per-block paths free of string building; others are built on demand.
var (
	internedLanes = 4*runtime.GOMAXPROCS(0) + 16
	schedTracks   = func() map[string]string {
		m := map[string]string{"caller": "sched caller"}
		for i := 0; i < internedLanes; i++ {
			e := "worker " + strconv.Itoa(i)
			m[e] = "sched " + e
		}
		return m
	}()
	smTracks   = newLanes("gpu sm ")
	rankTracks = newLanes("rank ")
)

// lanes names numbered tracks "<prefix>0", "<prefix>1", ….
type lanes struct {
	prefix string
	names  []string // interned names of the first internedLanes lanes
}

func newLanes(prefix string) lanes {
	l := lanes{prefix: prefix, names: make([]string, internedLanes)}
	for i := range l.names {
		l.names[i] = prefix + strconv.Itoa(i)
	}
	return l
}

func (l lanes) name(i int) string {
	if i >= 0 && i < len(l.names) {
		return l.names[i]
	}
	return l.prefix + strconv.Itoa(i)
}

// SchedTrack names the lane of a sched executor ("worker N" or
// "caller"): "sched worker N", "sched caller".
func SchedTrack(executor string) string {
	if t, ok := schedTracks[executor]; ok {
		return t
	}
	return "sched " + executor
}

// GPUSMTrack names the lane of a GPU device worker: "gpu sm N".
func GPUSMTrack(worker int) string { return smTracks.name(worker) }

// RankTrack names the lane of a cluster rank: "rank N".
func RankTrack(rank int) string { return rankTracks.name(rank) }

// ProfileListener returns a profile.SpanListener mirroring every region
// exit onto the track, preserving the region stack for the folded
// export. Attach with p.Listen(track.ProfileListener()).
func (t *Track) ProfileListener() profile.SpanListener {
	return func(path []string, start, end time.Time) {
		leaf := path[len(path)-1]
		t.AddSpanAt(leaf, path[:len(path)-1], start, end, nil)
	}
}

// AddClusterTrace imports a cluster tracer's per-rank event streams as
// "rank N" tracks: every send/recv/collective/compute interval becomes a
// span carrying peer and byte metadata. The late-sender totals of the
// wait-state analysis are attached as instant events at each rank's
// timeline origin, so the diagnosis travels with the trace.
func AddClusterTrace(s *Session, tr *cluster.Tracer) {
	ws := tr.AnalyzeWaitStates()
	for r := 0; r < tr.Size(); r++ {
		t := s.Track(RankTrack(r))
		for _, e := range tr.Events(r) {
			args := map[string]any{"bytes": e.Bytes}
			if e.Peer >= 0 {
				args["peer"] = e.Peer
			}
			t.AddSpanAt(e.Kind.String(), nil, e.Start, e.End, args)
		}
		if wait := ws.LateSenderTime[r]; wait > 0 {
			t.Instant("late-sender", map[string]any{
				"wait": wait.String(),
			})
		}
	}
}

// CounterSampler samples a PAPI-style event set into the session's
// counter series. Values are reported as deltas from the first sample,
// so the series start at zero at the session origin instead of at
// whatever the process accumulated before tracing began.
type CounterSampler struct {
	s    *Session
	set  *counters.EventSet
	base map[counters.Event]uint64
	// events and names are resolved once at construction so the
	// per-span-boundary record loop builds no series-name strings.
	events []counters.Event
	names  []string
}

// NewCounterSampler creates a sampler over the set and records the
// baseline sample immediately. prefix namespaces the series (e.g.
// "runtime/"). The set needs its events added, but not started.
func NewCounterSampler(s *Session, prefix string, set *counters.EventSet) (*CounterSampler, error) {
	base, err := set.ReadNow()
	if err != nil {
		return nil, err
	}
	cs := &CounterSampler{s: s, set: set, base: base, events: set.Events()}
	cs.names = make([]string, len(cs.events))
	for i, e := range cs.events {
		cs.names[i] = prefix + string(e)
	}
	cs.record(s.Now(), base)
	return cs, nil
}

// Sample reads every event in the set and appends one point per series,
// stamped now. Call it at span boundaries so counter inflections line up
// with the spans that caused them.
func (cs *CounterSampler) Sample() error {
	vals, err := cs.set.ReadNow()
	if err != nil {
		return err
	}
	cs.record(cs.s.Now(), vals)
	return nil
}

func (cs *CounterSampler) record(at time.Duration, vals map[counters.Event]uint64) {
	for i, e := range cs.events {
		// Signed delta: gauges like GO_GOROUTINES can dip below the
		// baseline, which must not wrap around in uint64 space.
		delta := float64(vals[e]) - float64(cs.base[e])
		cs.s.CounterSampleAt(cs.names[i], at, delta)
	}
}

// GPURecorder implements gpu.Recorder: kernel launches become spans on a
// "gpu device" track annotated with geometry and the occupancy analysis
// of model.go, and each executed block becomes a nested span on its
// worker's "gpu sm N" track.
type GPURecorder struct {
	s     *Session
	model machine.GPU
	// RegsPerThread is the per-thread register assumption fed to the
	// occupancy calculation (the executor does not model registers);
	// defaults to 32, the usual CUDA compiler ballpark.
	RegsPerThread int
}

// NewGPURecorder creates a recorder emitting onto s for a device model.
func NewGPURecorder(s *Session, model machine.GPU) *GPURecorder {
	return &GPURecorder{s: s, model: model, RegsPerThread: 32}
}

// KernelLaunch implements gpu.Recorder.
func (g *GPURecorder) KernelLaunch(name string, grid, block gpu.Dim3, sharedLen, workers int, start, end time.Time) {
	args := map[string]any{
		"grid":         fmt.Sprintf("%dx%dx%d", grid.X, grid.Y, grid.Z),
		"block":        fmt.Sprintf("%dx%dx%d", block.X, block.Y, block.Z),
		"blocks":       grid.Count(),
		"threads":      grid.Count() * block.Count(),
		"shared_bytes": sharedLen * 8,
		"workers":      workers,
	}
	if occ, err := gpu.ComputeOccupancy(g.model, block.Count(), g.RegsPerThread, sharedLen*8); err == nil {
		args["occupancy"] = occ.Fraction
		args["occupancy_limited_by"] = occ.LimitedBy
	}
	g.s.Track("gpu device").AddSpanAt(name, nil, start, end, args)
}

// KernelBlock implements gpu.Recorder.
func (g *GPURecorder) KernelBlock(name string, worker int, blockIdx gpu.Dim3, start, end time.Time) {
	t := g.s.Track(GPUSMTrack(worker))
	t.AddSpanAt("block", []string{name}, start, end, map[string]any{
		"blockIdx": fmt.Sprintf("(%d,%d,%d)", blockIdx.X, blockIdx.Y, blockIdx.Z),
	})
}

// SchedObserver implements sched.Observer: every range a pool executes
// becomes a span on a per-executor track ("sched worker 0", …, plus
// "sched caller" for ranges a submitter ran in its help loop), named by
// scheduling policy — the timeline view of how evenly a parallel
// region spread over the pool. The span carries the submitting
// region's id and fork offset plus steal provenance, so an offline
// analyzer (internal/critpath) can rebuild fork/join and steal edges
// from the exported trace alone. Attach with sched.Observe(
// obs.NewSchedObserver(session)) and detach with sched.Observe(nil).
type SchedObserver struct {
	s *Session
}

// NewSchedObserver creates an observer emitting onto s.
func NewSchedObserver(s *Session) *SchedObserver {
	return &SchedObserver{s: s}
}

// TaskRan implements sched.Observer.
func (o *SchedObserver) TaskRan(info sched.TaskInfo) {
	off := o.s.At(info.Start)
	args := map[string]any{
		"region":  info.Region,
		"worker":  info.Worker,
		"origin":  info.Origin,
		"stolen":  info.Stolen,
		"fork_ns": int64(o.s.At(info.Forked)),
	}
	o.s.Track(SchedTrack(info.Executor)).AddSpanOffsets(
		"parfor/"+info.Policy.String(), nil, off, off+info.Dur, args)
}

// SessionSink is a swappable indirection in front of the current
// session: long-lived consumers (the telemetry collector's sample
// bridge, the monitoring server's trace endpoints) hold one stable sink
// while a rolling workload loop rotates fresh sessions underneath it.
// It satisfies telemetry.SampleSink and, via Current, supplies
// telemetry.TraceSource; samples arriving while no session is attached
// are dropped.
type SessionSink struct {
	cur atomic.Pointer[Session]
}

// NewSessionSink returns a sink forwarding to s (nil = detached).
func NewSessionSink(s *Session) *SessionSink {
	k := &SessionSink{}
	k.cur.Store(s)
	return k
}

// Set swaps the target session; nil detaches.
func (k *SessionSink) Set(s *Session) { k.cur.Store(s) }

// Current returns the session currently receiving samples, or nil.
func (k *SessionSink) Current() *Session { return k.cur.Load() }

// CounterSample forwards one sampled value to the current session.
func (k *SessionSink) CounterSample(name string, v float64) {
	if s := k.cur.Load(); s != nil {
		s.CounterSample(name, v)
	}
}
