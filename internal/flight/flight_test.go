package flight

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfeng/internal/cluster"
	"perfeng/internal/gpu"
	"perfeng/internal/profile"
	"perfeng/internal/sched"
	"perfeng/internal/telemetry"
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
	r.Sample(telemetry.Sample{Name: "n", Value: 1})
	if SchedSink(r) != nil || GPUSink(r) != nil || ClusterSink(r, 2) != nil || ProfileSink(r, "host") != nil {
		t.Fatal("a sink for a nil recorder must be nil, so a hook attaches nothing")
	}
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
// 0 allocs/op, through every producer sink too.
func TestRecordPathAllocs(t *testing.T) {
	r := NewRecorder(0)
	start := time.Now()
	info := sched.TaskInfo{Executor: "worker 0", Policy: sched.PolicyStatic, Start: start, Dur: time.Microsecond}
	schedSink, gpuSink := SchedSink(r), GPUSink(r)
	clusterSink, profileSink := ClusterSink(r, 4), ProfileSink(r, "host")
	launch := gpu.Event{Kernel: "k", Launch: true, Start: start, End: start.Add(time.Millisecond)}
	block := gpu.Event{Kernel: "k", Worker: 1, Start: start, End: start.Add(time.Microsecond)}
	ev := cluster.Event{Rank: 2, Kind: cluster.EvSend, Peer: 1, Bytes: 8, Start: start, End: start.Add(time.Microsecond)}
	span := profile.Span{Path: []string{"app", "phase"}, Start: start, End: start.Add(time.Microsecond)}
	for name, record := range map[string]func(){
		"RecordSpan":  func() { r.RecordSpan("track", "name", "detail", time.Microsecond, time.Microsecond) },
		"Sample":      func() { r.Sample(telemetry.Sample{Name: "series", Value: 1}) },
		"SchedSink":   func() { schedSink(info) },
		"GPUSink":     func() { gpuSink(launch); gpuSink(block) },
		"ClusterSink": func() { clusterSink(ev) },
		"ProfileSink": func() { profileSink(span) },
	} {
		if a := testing.AllocsPerRun(1000, record); a != 0 {
			t.Errorf("%s allocates: %v allocs/op", name, a)
		}
	}
}

// TestPoolForWithSinkAllocs: a parallel region on a pool with a flight
// sink attached stays allocation-free in steady state, like an
// unobserved one (sched's TestSteadyStateAllocs).
func TestPoolForWithSinkAllocs(t *testing.T) {
	p := sched.New(1)
	defer p.Close()
	defer p.Tasks.Attach(SchedSink(NewRecorder(0)))()
	var sum atomic.Int64
	body := func(lo, hi int) { sum.Add(int64(hi - lo)) }
	for i := 0; i < 100; i++ {
		p.For(4096, 64, body) // warm the job pool and deque rings
	}
	if avg := testing.AllocsPerRun(200, func() { p.For(4096, 64, body) }); avg > 0.5 {
		t.Errorf("For with a flight sink allocates %.2f times per call, want 0", avg)
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
				r.Sample(telemetry.Sample{Name: "load", Value: float64(i)})
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

// TestSinksRecord: every producer sink records into the ring on its
// lane; off-table GPU workers still get a lane, out-of-range cluster
// ranks are dropped (matching the tracer), and the profiler sink keeps
// the leaf frame.
func TestSinksRecord(t *testing.T) {
	r := NewRecorder(0)
	now := time.Now()
	SchedSink(r)(sched.TaskInfo{Executor: "caller", Worker: -1, Start: now, Dur: time.Microsecond})
	gs := GPUSink(r)
	gs(gpu.Event{Kernel: "k", Launch: true, Start: now, End: now.Add(time.Millisecond)})
	gs(gpu.Event{Kernel: "k", Worker: 0, Start: now, End: now.Add(time.Microsecond)})
	gs(gpu.Event{Kernel: "k", Worker: 1 << 20, Start: now, End: now.Add(time.Microsecond)}) // off-table worker
	ClusterSink(r, 2)(cluster.Event{Rank: 5})
	ProfileSink(r, "host")(profile.Span{Path: []string{"app", "phase"}, Start: now, End: now.Add(time.Millisecond)})

	got := map[string]bool{}
	for _, rec := range r.Snapshot() {
		got[rec.Track+" | "+rec.Name+"/"+rec.Detail] = true
	}
	for _, want := range []string{
		"sched caller | parfor/stealing",
		"gpu device | k/",
		"gpu sm 0 | block/k",
		"gpu sm 1048576 | block/k",
		"host | phase/",
	} {
		if !got[want] {
			t.Errorf("ring lacks %q; holds %v", want, got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ring holds %d distinct records, want 5: %v", len(got), got)
	}
}
