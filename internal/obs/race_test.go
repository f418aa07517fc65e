package obs

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestExportWhileRecording hammers one session with concurrent span,
// instant and counter writers while a drainer repeatedly renders both
// exports — the exact shape of the flight recorder's dump-on-violation
// path, where the serve loop keeps recording while /debug/flight
// drains. Run under -race this proves the session's locking covers the
// export readers, not just the recording writers.
func TestExportWhileRecording(t *testing.T) {
	s := NewSession("race")
	// Each writer stops at maxIters even if the drainer is still
	// running: exports slow down as the session grows, so unbounded
	// writers can outpace the drainer until the process runs out of
	// memory.
	const writers, maxIters = 4, 1 << 9
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := s.Track("writer")
			own := s.GoroutineTrack()
			// Record before checking stop, so every writer lands at
			// least one full iteration even if the drainer is quick.
			for i := 0; i < maxIters; i++ {
				if err := own.Span("unit", func() {}); err != nil {
					t.Error(err)
					return
				}
				at := time.Duration(i) * time.Microsecond
				tr.AddSpanOffsets("work", []string{"outer"}, at, at+time.Microsecond,
					map[string]any{"writer": w})
				tr.InstantAt("mark", at, nil)
				s.CounterSampleAt("load", at, float64(i))
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}

	// The drainer: alternate both exports against the live session.
	for i := 0; i < 50; i++ {
		if err := s.WriteChromeTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteFolded(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if len(s.Spans()) == 0 || len(s.Instants()) == 0 {
		t.Fatal("writers recorded nothing")
	}
	if s.OpenSpans() != 0 {
		t.Fatalf("%d spans left open", s.OpenSpans())
	}
}

// TestInstantAt pins the explicit-offset variant: the marker lands at
// the given offset, not at now.
func TestInstantAt(t *testing.T) {
	s := NewSession("instants")
	tr := s.Track("t")
	tr.InstantAt("late", 42*time.Millisecond, map[string]any{"k": "v"})
	ins := s.Instants()
	if len(ins) != 1 || ins[0].At != 42*time.Millisecond || ins[0].Name != "late" {
		t.Fatalf("instants = %+v", ins)
	}
}
