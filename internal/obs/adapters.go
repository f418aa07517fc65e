package obs

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"

	"perfeng/internal/cluster"
	"perfeng/internal/gpu"
	"perfeng/internal/profile"
	"perfeng/internal/sched"
	"perfeng/internal/telemetry"
)

// Adapters wiring the existing producers into one session timeline:
// profiler regions become spans, cluster ranks become tracks (keeping
// the material the Scalasca-style wait-state analysis runs on), runtime
// collector samples become counter series, and SIMT kernel launches
// become device-track spans with occupancy metadata.

// Producer lane names. internal/flight's sinks use the same functions,
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

// ProfileSink returns a profile.Profiler.Spans sink mirroring every
// region exit onto t, preserving the region stack for the folded
// export. Attach with p.Spans.Attach(obs.ProfileSink(track)).
func ProfileSink(t *Track) func(profile.Span) {
	return func(sp profile.Span) {
		last := len(sp.Path) - 1
		t.AddSpanAt(sp.Path[last], sp.Path[:last], sp.Start, sp.End, nil)
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
		for _, e := range tr.RankEvents(r) {
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

// GPUSink returns a gpu.Device.Events sink: kernel launches become
// spans on a "gpu device" track annotated with geometry and the
// device's occupancy analysis (model.go), and each executed block
// becomes a nested span on its worker's "gpu sm N" track. Attach with
// dev.Events.Attach(obs.GPUSink(session)).
func GPUSink(s *Session) func(gpu.Event) {
	return func(ev gpu.Event) {
		if !ev.Launch {
			s.Track(GPUSMTrack(ev.Worker)).AddSpanAt("block", []string{ev.Kernel}, ev.Start, ev.End, map[string]any{
				"blockIdx": fmt.Sprintf("(%d,%d,%d)", ev.BlockIdx.X, ev.BlockIdx.Y, ev.BlockIdx.Z),
			})
			return
		}
		grid, block := ev.Grid, ev.Block
		args := map[string]any{
			"grid":         fmt.Sprintf("%dx%dx%d", grid.X, grid.Y, grid.Z),
			"block":        fmt.Sprintf("%dx%dx%d", block.X, block.Y, block.Z),
			"blocks":       grid.Count(),
			"threads":      grid.Count() * block.Count(),
			"shared_bytes": ev.SharedLen * 8,
			"workers":      ev.Workers,
		}
		if ev.Occupancy.Fraction > 0 {
			args["occupancy"] = ev.Occupancy.Fraction
			args["occupancy_limited_by"] = ev.Occupancy.LimitedBy
		}
		s.Track("gpu device").AddSpanAt(ev.Kernel, nil, ev.Start, ev.End, args)
	}
}

// SchedSink returns a sched.Pool.Tasks sink: every range a pool
// executes becomes a span on a per-executor track ("sched worker 0", …,
// plus "sched caller" for ranges a submitter ran in its help loop),
// named by scheduling policy — the timeline view of how evenly a
// parallel region spread over the pool. The span carries the submitting
// region's id and fork offset plus steal provenance, so an offline
// analyzer (internal/critpath) can rebuild fork/join and steal edges
// from the exported trace alone. Attach with
// detach := pool.Tasks.Attach(obs.SchedSink(session)).
func SchedSink(s *Session) func(sched.TaskInfo) {
	return func(info sched.TaskInfo) {
		off := s.At(info.Start)
		args := map[string]any{
			"region":  info.Region,
			"worker":  info.Worker,
			"origin":  info.Origin,
			"stolen":  info.Stolen,
			"fork_ns": int64(s.At(info.Forked)),
		}
		s.Track(SchedTrack(info.Executor)).AddSpanOffsets(
			"parfor/"+info.Policy.String(), nil, off, off+info.Dur, args)
	}
}

// SessionSink is a swappable indirection in front of the current
// session: long-lived consumers (the telemetry collector's Samples
// hook, the monitoring server's trace endpoints) hold one stable sink
// while a rolling workload loop rotates fresh sessions underneath it.
// Its Sample method is a telemetry.Collector.Samples sink and, via
// Current, it supplies telemetry.TraceSource; samples arriving while
// no session is attached are dropped.
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

// Sample forwards one collector sample to the current session.
func (k *SessionSink) Sample(smp telemetry.Sample) {
	if s := k.cur.Load(); s != nil {
		s.CounterSample(smp.Name, smp.Value)
	}
}
