package critpath

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"perfeng/internal/obs"
	"perfeng/internal/sched"
)

// TestLiveSchedSession runs a real parallel region with the provenance
// sink attached and analyzes the resulting session: fork edges must
// exist, the path must tile, and the region's join structure must hang
// off the host span that submitted it.
func TestLiveSchedSession(t *testing.T) {
	s := obs.NewSession("live-sched")
	pool := sched.New(4)
	defer pool.Close()
	defer pool.Tasks.Attach(obs.SchedSink(s))()

	host := s.Track("host")
	err := host.Span("region", func() {
		pool.ForPolicy(sched.PolicyStealing, 1<<14, 128, func(lo, hi int) {
			x := 0.0
			for i := lo; i < hi; i++ {
				x += float64(i)
			}
			_ = x
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Analyze(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireTiling(t, rep)
	var forks, joins int
	for _, e := range rep.Graph.Edges {
		switch e.Kind {
		case EdgeFork:
			forks++
		case EdgeJoin:
			joins++
		}
	}
	if forks == 0 || joins == 0 {
		t.Fatalf("sched region produced no fork/join edges (forks=%d joins=%d)", forks, joins)
	}
	// Every task span must be reachable as a node; the submitter's wait
	// inside the region must be elastic.
	var elastic int
	for _, n := range rep.Graph.Nodes {
		if n.Elastic && n.Cat == CatJoinWait {
			elastic++
		}
	}
	if elastic == 0 {
		t.Fatal("submitting span was not split into an elastic join-wait segment")
	}
}

// TestAnalyzeWhileRecording hammers Analyze against a session that
// producers are still appending to — the flight-recorder / monitoring
// use case. Run under -race this is the snapshot-isolation proof.
func TestAnalyzeWhileRecording(t *testing.T) {
	// Writers stop at maxIters even if Analyze is still running: each
	// analysis slows down as the session grows, so unbounded writers can
	// outpace it until the process runs out of memory.
	const maxIters = 1 << 12
	s := obs.NewSession("concurrent")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := s.Track("rank " + strconv.Itoa(w))
			at := time.Duration(0)
			for i := 0; i < maxIters; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.AddSpanOffsets("compute", nil, at, at+time.Microsecond, nil)
				if i%8 == 0 {
					tr.AddSpanOffsets("send", nil, at+time.Microsecond, at+2*time.Microsecond,
						map[string]any{"peer": (w + 1) % 4, "bytes": 8})
				}
				s.CounterSample("ops", float64(i))
				at += 3 * time.Microsecond
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		if _, err := Analyze(s, Options{}); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("analyze %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := Analyze(s, Options{}); err != nil {
		t.Fatal(err)
	}
}
