// The run stack shared by `perfeng serve` and `perfeng flight`: one
// telemetry registry collects every producer in the repo (runner, GPU
// device, cluster tracer, cache simulator, queuing, sched, tune) plus
// the background runtime collector; an always-on flight recorder
// black-boxes every producer, and an SLO engine watches named latency
// objectives. serve starts the HTTP server on top of it; flight runs a
// fixed number of iterations and drains the black box once.
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"perfeng"
	"perfeng/internal/cluster"
	"perfeng/internal/critpath"
	"perfeng/internal/flight"
	"perfeng/internal/gpu"
	"perfeng/internal/metrics"
	"perfeng/internal/obs"
	"perfeng/internal/queuing"
	"perfeng/internal/sched"
	"perfeng/internal/simulator"
	"perfeng/internal/telemetry"
	"perfeng/internal/tune"
)

// enableProducers points every telemetry producer at reg; nil detaches
// them all.
func enableProducers(reg *telemetry.Registry) {
	metrics.EnableTelemetry(reg)
	gpu.EnableTelemetry(reg)
	cluster.EnableTelemetry(reg)
	simulator.EnableTelemetry(reg)
	queuing.EnableTelemetry(reg)
	sched.EnableTelemetry(reg)
	tune.EnableTelemetry(reg)
}

// stackConfig is what serve and flight build their run stacks from.
type stackConfig struct {
	// cmd names the subcommand ("serve", "flight"): the console prefix
	// and the perfeng_<cmd>_iteration* metric names.
	cmd      string
	addr     string        // monitoring listen address (serve starts the server)
	interval time.Duration // runtime collector sampling interval
	capacity int           // flight ring capacity in records (0 = default)
	slos     string        // comma-separated SLO objectives (may be empty)
	dumpDir  string        // receives a flight dump on every violation ("" = none)
}

// runStack bundles the pieces serve and flight wire together; tests
// build one around port :0 and tear it down with close.
type runStack struct {
	cmd       string
	reg       *telemetry.Registry
	collector *telemetry.Collector
	server    *telemetry.Server
	sink      *obs.SessionSink
	iters     *telemetry.Counter
	iterHist  *telemetry.Histogram
	rec       *flight.Recorder
	engine    *flight.Engine
	dumpDir   string

	// Sink detaches: the collector's, for the stack's lifetime, and the
	// latest iteration's sched sinks, until the next iteration's replace
	// them.
	detachSamples, detachSched func()
}

// newRunStack builds the registry, enables every producer on it, and
// prepares the collector, flight recorder, SLO engine and HTTP server
// (none started yet). A violation is reported on stderr and, with a
// dump directory, drains the black box there (cooldown-limited).
func newRunStack(cfg stackConfig) (*runStack, error) {
	objectives, err := flight.ParseObjectives(cfg.slos)
	if err != nil {
		return nil, err
	}

	reg := telemetry.NewRegistry()
	enableProducers(reg)

	// The black box: every producer sink in wiring.go records into
	// flight.Active(), so enabling here arms them all.
	rec := flight.NewRecorder(cfg.capacity)
	flight.Enable(rec)

	sink := obs.NewSessionSink(nil)
	collector := telemetry.NewCollector(reg, cfg.interval)
	// Collector samples land in the live session's counter series AND
	// the flight ring, from the same sampling pass.
	detachObs, detachRec := collector.Samples.Attach(sink.Sample), collector.Samples.Attach(rec.Sample)
	server := telemetry.NewServer(cfg.addr, reg, func() telemetry.TraceSource {
		// Return a typed nil as an untyped one so the endpoints 404
		// cleanly before the first workload iteration attaches a session.
		if s := sink.Current(); s != nil {
			return s
		}
		return nil
	})

	prefix := "perfeng_" + cfg.cmd + "_"
	st := &runStack{
		cmd:       cfg.cmd,
		reg:       reg,
		collector: collector,
		server:    server,
		sink:      sink,
		iters: reg.Counter(prefix+"iterations",
			"Workload iterations completed under perfeng "+cfg.cmd+"."),
		iterHist: reg.Histogram(prefix+"iteration_seconds",
			"Wall-clock duration of one full workload iteration.", -30, 4),
		rec:           rec,
		dumpDir:       cfg.dumpDir,
		detachSamples: func() { detachObs(); detachRec() },
		detachSched:   func() {},
	}
	st.engine = flight.NewEngine(reg, rec, objectives, func(v flight.Violation) {
		fmt.Fprintf(os.Stderr, "perfeng %s: %s\n", st.cmd, v.String())
		st.dumpFlight(&v)
	})

	// On-demand black-box drain, next to the live-session endpoints.
	server.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		s := st.engine.DumpSession("perfeng flight", nil)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="flight.trace.json"`)
		if err := s.WriteChromeTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	server.HandleFunc("/debug/flight.folded", func(w http.ResponseWriter, _ *http.Request) {
		s := st.engine.DumpSession("perfeng flight", nil)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := s.WriteFolded(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return st, nil
}

// iterate runs one workload iteration in a fresh wired session called
// name and records it: a span in the flight ring and an
// exemplar-carrying histogram observation, so an SLO violation on the
// iteration latency links straight to the slowest iteration's interval
// in the black box.
func (st *runStack) iterate(name string, app *perfeng.Application, ranks, n int) (time.Duration, error) {
	ws := newWiredSession(name, st.collector)
	// Swap the fresh session in before running, so scrapes and trace
	// downloads during the iteration see live data. The previous
	// session's sched sinks stayed attached until now, so parallel work
	// between iterations still lands in the session being served.
	st.sink.Set(ws.session)
	st.detachSched()
	st.detachSched = ws.detachSched
	start := st.rec.Now()
	if err := runWorkload(ws, app, ranks, n); err != nil {
		return 0, err
	}
	dur := st.rec.Now() - start
	st.rec.RecordSpan("host", "iteration", "", start, dur)
	secs := dur.Seconds()
	st.iterHist.ObserveExemplar(secs, telemetry.Exemplar{
		Value: secs, Track: "host", Name: "iteration", Start: start, Dur: dur,
	})
	st.iters.Inc()
	return dur, nil
}

// iterQuantiles returns the live p50/p95/p99 of the iteration latency
// histogram for console output.
func (st *runStack) iterQuantiles() (p50, p95, p99 time.Duration) {
	toDur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return toDur(st.iterHist.Quantile(0.50)),
		toDur(st.iterHist.Quantile(0.95)),
		toDur(st.iterHist.Quantile(0.99))
}

// dumpFlight drains the black box (stamped with v, if any) into
// dumpDir. No-op without a dump directory.
func (st *runStack) dumpFlight(v *flight.Violation) {
	if st.dumpDir == "" {
		return
	}
	s := st.engine.DumpSession("perfeng flight dump", v)
	dumpFiles(st.dumpDir).write(s, "perfeng "+st.cmd, os.Stderr)
}

// close stops the SLO watcher, collector and server and detaches every
// producer and sink (including the flight recorder), so package-global
// telemetry does not outlive the stack.
func (st *runStack) close(ctx context.Context) error {
	st.engine.Stop()
	st.collector.Stop()
	err := st.server.Stop(ctx)
	enableProducers(nil)
	st.detachSched()
	st.detachSamples()
	flight.Enable(nil)
	return err
}

// traceFiles names where a session is exported; an empty path skips
// that file.
type traceFiles struct {
	trace, folded string // Chrome-trace JSON and folded stacks
	critpath      string // critical-path markdown report
}

// dumpFiles is the file set a flight dump directory receives.
func dumpFiles(dir string) traceFiles {
	return traceFiles{
		trace:    filepath.Join(dir, "flight.trace.json"),
		folded:   filepath.Join(dir, "flight.profile.folded"),
		critpath: filepath.Join(dir, "flight.critpath.md"),
	}
}

// write exports s to every named file, creating parent directories,
// and reports each file written on log as "<prog>: wrote <path>".
// Failures go to stderr without stopping the remaining files; write
// returns false if any occurred.
func (f traceFiles) write(s *obs.Session, prog string, log io.Writer) bool {
	type output struct {
		path  string
		write func(io.Writer) error
	}
	outs := []output{{f.trace, s.WriteChromeTrace}, {f.folded, s.WriteFolded}}
	ok := true
	if f.critpath != "" {
		// A dump ships its own diagnosis: the critical path of the
		// captured window, with wait-state attribution.
		if rep, err := critpath.Analyze(s, critpath.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "perfeng: critpath:", err)
			ok = false
		} else {
			outs = append(outs, output{f.critpath, func(w io.Writer) error {
				_, err := io.WriteString(w, rep.Markdown())
				return err
			}})
		}
	}
	for _, out := range outs {
		if out.path == "" {
			continue
		}
		err := os.MkdirAll(filepath.Dir(out.path), 0o755)
		if err == nil {
			err = writeFile(out.path, out.write)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfeng:", err)
			ok = false
			continue
		}
		fmt.Fprintf(log, "%s: wrote %s\n", prog, out.path)
	}
	return ok
}
