package obs

import (
	"strings"
	"testing"
	"time"

	"perfeng/internal/cluster"
	"perfeng/internal/counters"
	"perfeng/internal/gpu"
	"perfeng/internal/machine"
	"perfeng/internal/profile"
)

func TestProfileListenerMirrorsRegions(t *testing.T) {
	s := NewSession("test")
	p := profile.New()
	p.Listen(s.Track("host").ProfileListener())

	p.Enter("outer")
	p.Enter("inner")
	time.Sleep(time.Millisecond)
	if err := p.Exit("inner"); err != nil {
		t.Fatal(err)
	}
	if err := p.Exit("outer"); err != nil {
		t.Fatal(err)
	}

	spans := s.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "inner" || len(spans[0].Stack) != 1 || spans[0].Stack[0] != "outer" {
		t.Fatalf("inner span = %+v", spans[0])
	}
	if spans[1].Name != "outer" {
		t.Fatalf("outer span = %+v", spans[1])
	}
	// The profiler's own statistics must be untouched by listening.
	if got := len(p.Regions()); got != 2 {
		t.Fatalf("profiler regions = %d", got)
	}
	// Folded export sees the region stack through the adapter.
	joined := strings.Join(s.FoldedStacks(), "\n")
	if !strings.Contains(joined, "host;outer;inner ") {
		t.Fatalf("folded stacks missing nested path:\n%s", joined)
	}
}

func TestAddClusterTrace(t *testing.T) {
	w, err := cluster.NewWorld(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tracer := w.EnableTracing()
	s := NewSession("test")
	err = w.Run(func(c *cluster.Comm) error {
		const tag = 7
		if c.Rank() == 0 {
			start := time.Now()
			for i := 0; i < 1000; i++ {
				_ = i
			}
			tracer.RecordCompute(0, start, time.Now())
			return c.Send(1, tag, []float64{1, 2, 3})
		}
		_, err := c.Recv(0, tag)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	AddClusterTrace(s, tracer)

	names := s.TrackNames()
	if len(names) != 2 || names[0] != "rank 0" || names[1] != "rank 1" {
		t.Fatalf("tracks = %v", names)
	}
	kinds := make(map[string]int)
	for _, sp := range s.Spans() {
		kinds[sp.Name]++
		if sp.Name == "send" {
			if sp.Args["peer"].(int) != 1 || sp.Args["bytes"].(int) != 24 {
				t.Fatalf("send args = %v", sp.Args)
			}
		}
	}
	for _, want := range []string{"send", "recv", "compute"} {
		if kinds[want] == 0 {
			t.Fatalf("missing %q spans: %v", want, kinds)
		}
	}
}

func TestCounterSampler(t *testing.T) {
	s := NewSession("test")
	set := counters.NewEventSet(counters.RuntimeBackend{})
	if err := set.Add(counters.Allocs, counters.Goroutines); err != nil {
		t.Fatal(err)
	}
	cs, err := NewCounterSampler(s, "runtime/", set)
	if err != nil {
		t.Fatal(err)
	}
	// Allocate between samples so the delta is visibly positive.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	if err := cs.Sample(); err != nil {
		t.Fatal(err)
	}
	series := s.Counters()
	allocs := series["runtime/"+string(counters.Allocs)]
	if len(allocs) != 2 {
		t.Fatalf("alloc samples = %d, want 2 (baseline + one)", len(allocs))
	}
	if allocs[0].Value != 0 {
		t.Fatalf("baseline sample = %v, want 0", allocs[0].Value)
	}
	if allocs[1].Value <= 0 {
		t.Fatalf("alloc delta = %v, want > 0", allocs[1].Value)
	}
	if allocs[1].At < allocs[0].At {
		t.Fatal("samples out of order")
	}
	if _, ok := series["runtime/"+string(counters.Goroutines)]; !ok {
		t.Fatal("goroutine series missing")
	}
}

func TestGPURecorder(t *testing.T) {
	model := machine.DAS5TitanX()
	dev, err := gpu.NewDevice(model)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession("test")
	dev.Recorder = NewGPURecorder(s, model)

	n := 1 << 12
	out := make([]float64, n)
	if err := dev.LaunchNamed("saxpy",
		gpu.Dim3{X: n / 256, Y: 1, Z: 1}, gpu.Dim3{X: 256, Y: 1, Z: 1}, 0,
		func(b, tid gpu.Dim3, _ []float64) {
			i := b.X*256 + tid.X
			out[i] = 2*float64(i) + 1
		}); err != nil {
		t.Fatal(err)
	}

	var launch *Span
	blocks := 0
	spans := s.Spans()
	for i, sp := range spans {
		switch sp.Name {
		case "saxpy":
			launch = &spans[i]
		case "block":
			blocks++
			if len(sp.Stack) != 1 || sp.Stack[0] != "saxpy" {
				t.Fatalf("block span not nested under kernel: %+v", sp)
			}
		}
	}
	if launch == nil {
		t.Fatal("kernel launch span missing")
	}
	if blocks != n/256 {
		t.Fatalf("block spans = %d, want %d", blocks, n/256)
	}
	if launch.Args["occupancy"] == nil || launch.Args["blocks"].(int) != n/256 {
		t.Fatalf("launch args = %v", launch.Args)
	}
	// Device track plus at least one SM track exist. Which SM lanes
	// appear depends on which workers claimed blocks, so only their
	// existence is asserted, not their numbering.
	names := strings.Join(s.TrackNames(), ",")
	if !strings.Contains(names, "gpu device") || !strings.Contains(names, "gpu sm ") {
		t.Fatalf("tracks = %s", names)
	}
}

// TestLaneTracks pins the lane names the session adapters and the
// flight tees share, on and off the interned tables, and that the
// interned lookups build no strings.
func TestLaneTracks(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{SchedTrack("worker 3"), "sched worker 3"},
		{SchedTrack("caller"), "sched caller"},
		{SchedTrack("worker 99999"), "sched worker 99999"},
		{GPUSMTrack(0), "gpu sm 0"},
		{GPUSMTrack(1 << 20), "gpu sm 1048576"},
		{RankTrack(2), "rank 2"},
		{RankTrack(-1), "rank -1"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		_ = SchedTrack("worker 0")
		_ = GPUSMTrack(1)
		_ = RankTrack(1)
	}); a != 0 {
		t.Fatalf("interned lane lookups allocate: %v allocs/op", a)
	}
}
