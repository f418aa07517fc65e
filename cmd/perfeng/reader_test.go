package main

import (
	"context"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"testing"
	"time"

	"perfeng"
	"perfeng/internal/critpath"
	"perfeng/internal/obs"
)

// rawSeries names every series one collector Read publishes: the
// curated runtime/metrics table and the MemStats trio.
var rawSeries = []string{
	"go_sched_goroutines",
	"go_sched_gomaxprocs_threads",
	"go_gc_cycles_total_cycles",
	"go_gc_heap_allocs_bytes",
	"go_gc_heap_allocs_objects",
	"go_memory_heap_objects_bytes",
	"go_memory_total_bytes",
	"go_gc_pause_total_seconds",
	"go_memstats_heap_inuse_bytes",
	"go_memstats_stack_inuse_bytes",
}

// derivedSeries are the ratios only a collector tick publishes.
var derivedSeries = []string{"go_gc_pause_burn_ratio", "perfeng_sched_steal_failure_ratio"}

// hostSpans counts the spans on s's "host" track: one per profiler
// region exit.
func hostSpans(s *obs.Session) int {
	tracks := s.TrackNames()
	n := 0
	for _, sp := range s.Spans() {
		if tracks[sp.TrackID] == "host" {
			n++
		}
	}
	return n
}

// checkOneReader fails unless s's counter series are the collector's
// names only, with every raw series at least min points long.
func checkOneReader(t *testing.T, what string, s *obs.Session, min int) map[string][]obs.Sample {
	t.Helper()
	series := s.Counters()
	known := map[string]bool{}
	for _, n := range append(append([]string(nil), rawSeries...), derivedSeries...) {
		known[n] = true
	}
	for name := range series {
		if !known[name] || strings.HasPrefix(name, "runtime/") {
			t.Errorf("%s: series %q is not one of the collector's", what, name)
		}
	}
	for _, name := range rawSeries {
		if got := len(series[name]); got < min {
			t.Errorf("%s: %s has %d points, want >= %d", what, name, got, min)
		}
	}
	return series
}

// TestTraceSessionReadsRuntimeAtSpanExits: a `perfeng trace` session
// takes one runtime reading per profiler span exit from its own
// collector, so its GC pause series has one point per host span, and
// critpath charges a GC forced inside a region to the path.
func TestTraceSessionReadsRuntimeAtSpanExits(t *testing.T) {
	app, err := perfeng.BuiltinApplication("matmul", 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The GC runs in the second region, so the first region's exit
	// reading precedes it.
	app.Candidates = append([]perfeng.Variant{{Name: "gc", Run: runtime.GC, Procs: 1}}, app.Candidates...)
	ws := newWiredSession("one-reader", nil)
	defer ws.detachSched()
	if err := runWorkload(ws, app, 2, 32); err != nil {
		t.Fatal(err)
	}
	s := ws.session
	spans := hostSpans(s)
	series := checkOneReader(t, "trace session", s, spans)
	for _, name := range rawSeries {
		if got := len(series[name]); got != spans {
			t.Errorf("%s has %d points, want one per host span (%d)", name, got, spans)
		}
	}
	for _, name := range derivedSeries {
		if _, ok := series[name]; ok {
			t.Errorf("an unstarted collector published the tick-only %s", name)
		}
	}
	pause := series["go_gc_pause_total_seconds"]
	for i := 1; i < len(pause); i++ {
		if pause[i].At < pause[i-1].At || pause[i].Value < pause[i-1].Value {
			t.Fatalf("pause series not cumulative in time order at %d: %v then %v", i, pause[i-1], pause[i])
		}
	}
	rep, err := critpath.Analyze(s, critpath.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GCPause <= 0 {
		t.Fatalf("critpath GC pause = %v after a forced GC inside a region, want > 0", rep.GCPause)
	}
}

// TestServeSessionOneSeriesPerQuantity: in a serve iteration the stack's
// collector is the one reader, so the live session and the flight ring
// hold one series per runtime quantity, with span-exit readings and
// ticks landing in the same series.
func TestServeSessionOneSeriesPerQuantity(t *testing.T) {
	st, err := newRunStack(stackConfig{cmd: "serve", addr: "127.0.0.1:0", interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close(context.Background())
	app, err := perfeng.BuiltinApplication("histogram", 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.collector.Start()
	if _, err := st.iterate("one-series", app, 2, 32); err != nil {
		t.Fatal(err)
	}
	st.collector.Stop()
	live := st.sink.Current()
	checkOneReader(t, "live session", live, hostSpans(live))
	checkOneReader(t, "flight drain", st.rec.BuildSession("one-series"), 1)
}

// stwPauses returns how many non-GC stop-the-world pauses the process
// has taken.
func stwPauses() uint64 {
	s := []rtmetrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	rtmetrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestSpanExitStopsTheWorldOnce: a span-boundary reading stops the
// world once, for the MemStats trio; the runtime/metrics table is read
// without a pause. Anything else in the process can only add pauses,
// so the fewest over three tries is the reading's own cost.
func TestSpanExitStopsTheWorldOnce(t *testing.T) {
	ws := newWiredSession("stw", nil)
	defer ws.detachSched()
	const n = 50
	best := uint64(1 << 62)
	for try := 0; try < 3; try++ {
		before := stwPauses()
		for i := 0; i < n; i++ {
			if err := ws.prof.Do("r", func() {}); err != nil {
				t.Fatal(err)
			}
		}
		best = min(best, stwPauses()-before)
	}
	if best != n {
		t.Fatalf("%d span exits took %d non-GC stop-the-world pauses, want %d (one each)", n, best, n)
	}
}
