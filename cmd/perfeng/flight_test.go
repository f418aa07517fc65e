package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfeng"
	"perfeng/internal/flight"
	"perfeng/internal/obs"
)

// TestFlightCapture runs perfeng flight's path end to end: one
// iteration on the run stack with an unsatisfiable objective must
// report the violation, and the drained black box must read back as a
// Chrome trace carrying the sched, gpu and rank producer lanes plus
// the violated objective on the "slo" track.
func TestFlightCapture(t *testing.T) {
	dir := t.TempDir()
	const objective = "perfeng_flight_iteration_seconds.p99<1ns"
	app, err := perfeng.BuiltinApplication("matmul", 48, 2)
	if err != nil {
		t.Fatal(err)
	}
	files := traceFiles{
		trace:  filepath.Join(dir, "flight.trace.json"),
		folded: filepath.Join(dir, "flight.profile.folded"),
	}
	cfg := stackConfig{cmd: "flight", interval: 100 * time.Millisecond, slos: objective}
	vs, err := captureFlight(app, 2, 48, 1, cfg, files)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Objective.Raw != objective || !vs[0].HasExemplar {
		t.Fatalf("violations = %+v, want one on %s with an exemplar", vs, objective)
	}
	if flight.Active() != nil {
		t.Fatal("flight recorder still enabled after the capture")
	}

	f, err := os.Open(files.trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := obs.ReadChromeTrace(f)
	if err != nil {
		t.Fatalf("flight trace does not read back: %v", err)
	}
	names := s.TrackNames()
	for _, prefix := range []string{"sched ", "gpu ", "rank ", "slo"} {
		found := false
		for _, name := range names {
			found = found || strings.HasPrefix(name, prefix)
		}
		if !found {
			t.Errorf("no %q track in %v", prefix, names)
		}
	}
	sloSpan := false
	for _, sp := range s.Spans() {
		sloSpan = sloSpan || sp.Name == objective
	}
	if !sloSpan {
		t.Errorf("no span named by the violated objective %q", objective)
	}
	if _, err := os.Stat(files.folded); err != nil {
		t.Fatalf("folded dump missing: %v", err)
	}
}
