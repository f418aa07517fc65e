package main

import (
	"context"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"perfeng"
	"perfeng/internal/obs"
)

// laneNumber matches the numbered producer lanes whose index depends on
// which worker, SM or rank happened to run an interval.
var laneNumber = regexp.MustCompile(`^(sched (worker \d+|caller)|gpu sm \d+|rank \d+)$`)

// spanShapes returns the sorted set of "track | span name | arg keys"
// lines of s's spans, with sched, SM and rank lane numbers folded into
// one lane each. Sched span names fold their policy too: which regions
// run inline, and so which policies reach a lane, varies with the CPU
// count.
func spanShapes(s *obs.Session) []string {
	tracks := s.TrackNames()
	set := map[string]bool{}
	for _, sp := range s.Spans() {
		track := tracks[sp.TrackID]
		if laneNumber.MatchString(track) {
			track = track[:strings.LastIndexByte(track, ' ')] + " *"
			if strings.HasPrefix(track, "sched") {
				track = "sched *"
			}
		}
		name := sp.Name
		if track == "sched *" {
			name = name[:strings.IndexByte(name, '/')] + "/*"
		}
		keys := make([]string, 0, len(sp.Args))
		for k := range sp.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		set[track+" | "+name+" | "+strings.Join(keys, ",")] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadTraceShape pins what one instrumented workload iteration
// puts on the timeline: every producer lane, span name and argument key
// of the live session, and of the flight drain taken alongside it. The
// set does not depend on how the instrumentation is wired, only on what
// reaches each consumer.
func TestWorkloadTraceShape(t *testing.T) {
	st, err := newRunStack(stackConfig{cmd: "flight", interval: time.Second, capacity: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close(context.Background())
	app, err := perfeng.BuiltinApplication("matmul", 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.iterate("shape", app, 2, 32); err != nil {
		t.Fatal(err)
	}

	const sched = "fork_ns,origin,region,stolen,worker"
	const launch = "block,blocks,grid,occupancy,occupancy_limited_by,shared_bytes,threads,workers"
	wantLive := []string{
		"gpu device | saxpy | " + launch,
		"gpu sm * | block | blockIdx",
		"host | cluster/allreduce | ",
		"host | gpu/saxpy | ",
		"host | matmul-n32 | ",
		"host | queuing/mmc | ",
		"host | runner/baseline | ",
		"host | simulator/triad | ",
		"host | variant/naive-ijk | ",
		"host | variant/parallel-ikj | ",
		"host | variant/parallel-tiled | ",
		"host | variant/reordered-ikj | ",
		"host | variant/tiled | ",
		"host | variant/transposed | ",
		"rank * | barrier | bytes",
		"rank * | bcast | bytes,peer",
		"rank * | compute | bytes",
		"rank * | recv | bytes,peer",
		"rank * | reduce | bytes,peer",
		"rank * | send | bytes,peer",
		"sched * | parfor/* | " + sched,
	}
	wantFlight := []string{
		"gpu device | saxpy | ",
		"gpu sm * | block/saxpy | ",
		"host | cluster/allreduce | ",
		"host | gpu/saxpy | ",
		"host | iteration | ",
		"host | matmul-n32 | ",
		"host | queuing/mmc | ",
		"host | runner/baseline | ",
		"host | simulator/triad | ",
		"host | variant/naive-ijk | ",
		"host | variant/parallel-ikj | ",
		"host | variant/parallel-tiled | ",
		"host | variant/reordered-ikj | ",
		"host | variant/tiled | ",
		"host | variant/transposed | ",
		"rank * | barrier | ",
		"rank * | bcast | ",
		"rank * | compute | ",
		"rank * | recv | ",
		"rank * | reduce | ",
		"rank * | send | ",
		"sched * | parfor/* | value",
	}
	check := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s span shapes:\n got %q\nwant %q", what, got, want)
		}
	}
	check("live session", spanShapes(st.sink.Current()), wantLive)
	check("flight drain", spanShapes(st.rec.BuildSession("shape")), wantFlight)
}
