package flight

import (
	"sync"
	"testing"
	"time"

	"perfeng/internal/cluster"
	"perfeng/internal/gpu"
	"perfeng/internal/sched"
)

// TestRingBounds: the recorder holds at most its capacity, overwrites
// oldest-first, and keeps counting what it dropped.
func TestRingBounds(t *testing.T) {
	r := NewRecorder(numStripes * 8) // minimum ring: 8 records per stripe
	total := numStripes * 8 * 4
	for i := 0; i < total; i++ {
		r.RecordSpan("t", "span", "", time.Duration(i), 1)
	}
	if got := r.Total(); got != uint64(total) {
		t.Fatalf("Total = %d, want %d", got, total)
	}
	if held := r.Len(); held > numStripes*8 || held == 0 {
		t.Fatalf("Len = %d, want in (0, %d]", held, numStripes*8)
	}
	snap := r.Snapshot()
	if len(snap) != r.Len() {
		t.Fatalf("Snapshot has %d records, Len says %d", len(snap), r.Len())
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Start < snap[i-1].Start {
			t.Fatal("snapshot not ordered by Start")
		}
	}
	// Everything this goroutine wrote landed in one stripe, so the
	// stripe's survivors must be the newest 8 of the sequence.
	if snap[len(snap)-1].Start != time.Duration(total-1) {
		t.Fatalf("newest record Start = %d, want %d", snap[len(snap)-1].Start, total-1)
	}
}

// TestNilRecorder: the disabled state is a nil pointer whose methods
// all no-op.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(Record{})
	r.RecordSpan("t", "n", "", 0, 0)
	r.RecordInstant("t", "n", 0)
	r.RecordSample("n", 0, 1)
	r.CounterSample("n", 1)
	if r.Len() != 0 || r.Total() != 0 || r.Snapshot() != nil || r.Now() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if s := r.BuildSession("empty"); s == nil || len(s.Spans()) != 0 {
		t.Fatal("nil recorder must still build an empty session")
	}
	Enable(nil)
	if Active() != nil {
		t.Fatal("Active after Enable(nil) must be nil")
	}
	rec := NewRecorder(0)
	Enable(rec)
	defer Enable(nil)
	if Active() != rec {
		t.Fatal("Active did not return the enabled recorder")
	}
}

// TestRecordPathAllocs gates the black-box contract: recording is
// 0 allocs/op, including through the sched tee and cluster listener.
func TestRecordPathAllocs(t *testing.T) {
	r := NewRecorder(0)
	if a := testing.AllocsPerRun(1000, func() {
		r.RecordSpan("track", "name", "detail", time.Microsecond, time.Microsecond)
	}); a != 0 {
		t.Fatalf("RecordSpan allocates: %v allocs/op", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		r.CounterSample("series", 1.0)
	}); a != 0 {
		t.Fatalf("CounterSample allocates: %v allocs/op", a)
	}
	tee := NewSchedTee(r, nil)
	start := time.Now()
	info := sched.TaskInfo{Executor: "worker 0", Policy: sched.PolicyStatic, Start: start, Dur: time.Microsecond}
	if a := testing.AllocsPerRun(1000, func() { tee.TaskRan(info) }); a != 0 {
		t.Fatalf("SchedTee.TaskRan allocates: %v allocs/op", a)
	}
	lis := ClusterListener(r, 4)
	ev := cluster.Event{Kind: cluster.EvSend, Peer: 1, Bytes: 8, Start: start, End: start.Add(time.Microsecond)}
	if a := testing.AllocsPerRun(1000, func() { lis(2, ev) }); a != 0 {
		t.Fatalf("ClusterListener allocates: %v allocs/op", a)
	}
}

// TestBuildSession: records drain into a valid obs session on the
// right tracks, with Name/Detail joined and samples as counter series.
func TestBuildSession(t *testing.T) {
	r := NewRecorder(0)
	r.RecordSpan("sched worker 0", "parfor", "stealing", 10, 5)
	r.RecordSpan("gpu device", "saxpy", "", 20, 7)
	r.RecordInstant("host", "mark", 30)
	r.RecordSample("go_sched_goroutines", 40, 12)

	s := r.BuildSession("dump")
	spans := s.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	names := s.TrackNames()
	byName := map[string]string{}
	for _, sp := range spans {
		byName[sp.Name] = names[sp.TrackID]
	}
	if byName["parfor/stealing"] != "sched worker 0" {
		t.Fatalf("joined span mapping wrong: %v", byName)
	}
	if byName["saxpy"] != "gpu device" {
		t.Fatalf("detail-less span mapping wrong: %v", byName)
	}
	ins := s.Instants()
	if len(ins) != 1 || ins[0].Name != "mark" || ins[0].At != 30 {
		t.Fatalf("instants = %+v", ins)
	}
	series := s.Counters()["go_sched_goroutines"]
	if len(series) != 1 || series[0].Value != 12 || series[0].At != 40 {
		t.Fatalf("counter series = %+v", series)
	}
	if s.OpenSpans() != 0 {
		t.Fatal("drained session has open spans")
	}
}

// TestConcurrentRecordAndDrain: writers on several goroutines race
// Snapshot/BuildSession — run under -race this is the black box's
// record-while-draining guarantee.
func TestConcurrentRecordAndDrain(t *testing.T) {
	r := NewRecorder(1024)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				r.RecordSpan("t", "work", "", time.Duration(i), 1)
				r.CounterSample("load", float64(i))
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if s := r.BuildSession("drain"); s.OpenSpans() != 0 {
			t.Fatal("invalid session mid-drain")
		}
	}
	close(stop)
	wg.Wait()
	if r.Total() == 0 {
		t.Fatal("writers recorded nothing")
	}
}

type innerSched struct{ n int }

func (o *innerSched) TaskRan(sched.TaskInfo) { o.n++ }

type innerGPU struct{ launches, blocks int }

func (g *innerGPU) KernelLaunch(string, gpu.Dim3, gpu.Dim3, int, int, time.Time, time.Time) {
	g.launches++
}
func (g *innerGPU) KernelBlock(string, int, gpu.Dim3, time.Time, time.Time) { g.blocks++ }

// TestTeesForward: every tee records into the ring AND forwards to the
// wrapped observer.
func TestTeesForward(t *testing.T) {
	r := NewRecorder(0)
	is := &innerSched{}
	NewSchedTee(r, is).TaskRan(sched.TaskInfo{Executor: "caller", Worker: -1, Start: time.Now(), Dur: time.Microsecond})
	if is.n != 1 {
		t.Fatal("sched tee did not forward")
	}
	ig := &innerGPU{}
	gt := NewGPUTee(r, ig)
	now := time.Now()
	gt.KernelLaunch("k", gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 32, Y: 1, Z: 1}, 0, 2, now, now.Add(time.Millisecond))
	gt.KernelBlock("k", 0, gpu.Dim3{}, now, now.Add(time.Microsecond))
	gt.KernelBlock("k", 1<<20, gpu.Dim3{}, now, now.Add(time.Microsecond)) // off-table worker
	if ig.launches != 1 || ig.blocks != 2 {
		t.Fatalf("gpu tee forwarding: %+v", ig)
	}
	// Out-of-range cluster ranks are dropped, matching the tracer.
	ClusterListener(r, 2)(5, cluster.Event{})
	if got := r.Len(); got != 4 {
		t.Fatalf("ring holds %d records, want 4", got)
	}
	// The profiler mirror records the leaf frame.
	SpanListener(r, "host")([]string{"app", "phase"}, now, now.Add(time.Millisecond))
	found := false
	for _, rec := range r.Snapshot() {
		if rec.Name == "phase" && rec.Track == "host" {
			found = true
		}
	}
	if !found {
		t.Fatal("profiler span did not land in the ring")
	}
}
