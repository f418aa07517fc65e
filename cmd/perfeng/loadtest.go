// The loadtest subcommand: drive the job service with N closed-loop
// clients and gate on what comes back. Against a remote -url it is a
// black-box protocol and latency check; with no -url it spins an
// in-process service (same wiring as perfeng serve) so CI can exercise
// the full HTTP/SSE/admission stack in one process. The report puts
// the measured sojourn quantiles next to the server's own M/M/c
// prediction — the "is the model honest" column EXPERIMENTS.md tracks
// — and -fail-p99 turns the whole thing into a pass/fail gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"perfeng/internal/serviced"
	"perfeng/internal/telemetry"
)

func runLoadtest(args []string) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	var (
		url      = fs.String("url", "", "job service base URL; empty starts an in-process service")
		clients  = fs.Int("clients", 500, "concurrent closed-loop clients")
		duration = fs.Duration("duration", 10*time.Second, "how long clients keep submitting")
		tenants  = fs.Int("tenants", 8, "tenant ids the clients spread over")
		kernel   = fs.String("kernel", "histogram", "kernel each job runs")
		n        = fs.Int("n", 64, "problem size per job")
		reps     = fs.Int("reps", 1, "repetitions per job")
		workers  = fs.Int("workers", 1, "workers per job")
		think    = fs.Duration("think", 0, "mean exponential client think time between jobs (0 = saturate)")
		execs    = fs.Int("executors", 2, "executors for the in-process service (ignored with -url)")
		target   = fs.Duration("target-p99", 2*time.Second, "admission objective for the in-process service (ignored with -url)")
		failP99  = fs.Duration("fail-p99", 0, "exit 1 if the measured p99 sojourn exceeds this (0 = no latency gate)")
		jsonPath = fs.String("json", "", "write the full report as JSON here")
		mdPath   = fs.String("md", "", "write a markdown summary here")
		github   = fs.Bool("github", false, "emit GitHub Actions ::error annotations on gate failure")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: perfeng loadtest [flags]")
		fmt.Fprintln(os.Stderr, "drives the job service with closed-loop clients, validates every SSE")
		fmt.Fprintln(os.Stderr, "stream against the versioned wire schema, and reports throughput plus")
		fmt.Fprintln(os.Stderr, "sojourn quantiles alongside the admission model's own p99 prediction.")
		fmt.Fprintln(os.Stderr, "The gate fails on any protocol violation, on zero completions, and —")
		fmt.Fprintln(os.Stderr, "with -fail-p99 — on measured p99 over the bound.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	base := *url
	var cleanup func()
	if base == "" {
		reg := telemetry.NewRegistry()
		svc, err := newJobService(reg, *execs, *target)
		if err != nil {
			fatal(err)
		}
		server := telemetry.NewServer("127.0.0.1:0", reg, nil)
		svc.Attach(server)
		bound, err := server.Start()
		if err != nil {
			fatal(err)
		}
		base = "http://" + bound
		fmt.Fprintf(os.Stderr, "perfeng loadtest: in-process service on %s (%d executors, target p99 %v)\n",
			base, *execs, *target)
		cleanup = func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			server.Stop(ctx)
			svc.Close()
		}
	}

	fmt.Fprintf(os.Stderr, "perfeng loadtest: %d clients x %v against %s (kernel=%s n=%d reps=%d)\n",
		*clients, *duration, base, *kernel, *n, *reps)
	rep, err := serviced.RunLoad(context.Background(), serviced.LoadConfig{
		URL:      base,
		Clients:  *clients,
		Duration: *duration,
		Tenants:  *tenants,
		Think:    *think,
		Spec: serviced.JobSpec{
			Kernel: *kernel, N: *n, Reps: *reps, Workers: *workers,
		},
	})
	if cleanup != nil {
		cleanup()
	}
	if err != nil {
		fatal(err)
	}

	fmt.Print(loadReportText(rep))
	if *jsonPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfeng loadtest: wrote %s\n", *jsonPath)
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(loadReportMarkdown(rep, *failP99)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfeng loadtest: wrote %s\n", *mdPath)
	}

	failures := gateLoadReport(rep, *failP99)
	for _, f := range failures {
		if *github {
			fmt.Printf("::error title=loadtest gate::%s\n", f)
		}
		fmt.Fprintln(os.Stderr, "perfeng loadtest: FAIL:", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "perfeng loadtest: gate passed")
}

// gateLoadReport returns the gate-failure reasons (empty = pass):
// protocol violations and dropped events are always fatal, a latency
// bound applies only when set.
func gateLoadReport(rep *serviced.LoadReport, failP99 time.Duration) []string {
	var fails []string
	if rep.Completed == 0 {
		fails = append(fails, "no jobs completed")
	}
	if rep.ProtocolViolations > 0 {
		fails = append(fails, fmt.Sprintf("%d protocol violations (schema, seq gaps, kind order, or dropped events)",
			rep.ProtocolViolations))
	}
	if rep.Errors > 0 {
		fails = append(fails, fmt.Sprintf("%d client errors (non-2xx/429 responses or broken streams)", rep.Errors))
	}
	if failP99 > 0 && rep.P99Sojourn > failP99 {
		fails = append(fails, fmt.Sprintf("p99 sojourn %v exceeds the %v objective",
			rep.P99Sojourn.Round(time.Millisecond), failP99))
	}
	return fails
}

func loadReportText(rep *serviced.LoadReport) string {
	s := fmt.Sprintf("loadtest: %d clients over %v: %d completed (%.1f jobs/s), %d rejected (%d rate, %d queue), %d errors, %d violations\n",
		rep.Clients, rep.Duration.Round(time.Millisecond), rep.Completed, rep.Throughput,
		rep.Rejected, rep.RejectedRate, rep.RejectedQueue, rep.Errors, rep.ProtocolViolations)
	s += fmt.Sprintf("loadtest: sojourn mean=%v p50=%v p95=%v p99=%v max=%v\n",
		rep.MeanSojourn.Round(time.Microsecond), rep.P50Sojourn.Round(time.Microsecond),
		rep.P95Sojourn.Round(time.Microsecond), rep.P99Sojourn.Round(time.Microsecond),
		rep.MaxSojourn.Round(time.Microsecond))
	if st := rep.ServerStats; st != nil {
		s += fmt.Sprintf("loadtest: server-side sojourn (admit->done) p50=%v p95=%v p99=%v\n",
			st.SojournP50.Round(time.Microsecond), st.SojournP95.Round(time.Microsecond),
			st.SojournP99.Round(time.Microsecond))
		s += fmt.Sprintf("loadtest: server admission: lambda=%.1f/s queue<=%d rho=%.2f service mean=%v\n",
			st.Sizing.Lambda, st.Sizing.QueueDepth, st.Sizing.Rho,
			st.ServiceMean.Round(time.Microsecond))
	}
	if rep.ModeledP99 > 0 {
		s += fmt.Sprintf("loadtest: modeled p99 at achieved load: %v (model error vs server-side p99: %+.1f%%)\n",
			rep.ModeledP99.Round(time.Microsecond), rep.ModelError*100)
	}
	return s
}

func loadReportMarkdown(rep *serviced.LoadReport, failP99 time.Duration) string {
	verdict := "✅ pass"
	if len(gateLoadReport(rep, failP99)) > 0 {
		verdict = "❌ fail"
	}
	s := "## Load-test gate\n\n"
	s += "| metric | value |\n|---|---|\n"
	s += fmt.Sprintf("| clients × duration | %d × %v |\n", rep.Clients, rep.Duration.Round(time.Millisecond))
	s += fmt.Sprintf("| completed / rejected / errors | %d / %d / %d |\n", rep.Completed, rep.Rejected, rep.Errors)
	s += fmt.Sprintf("| protocol violations | %d |\n", rep.ProtocolViolations)
	s += fmt.Sprintf("| throughput | %.1f jobs/s |\n", rep.Throughput)
	s += fmt.Sprintf("| client sojourn p50 / p95 / p99 | %v / %v / %v |\n",
		rep.P50Sojourn.Round(time.Microsecond), rep.P95Sojourn.Round(time.Microsecond),
		rep.P99Sojourn.Round(time.Microsecond))
	if st := rep.ServerStats; st != nil {
		s += fmt.Sprintf("| server sojourn p50 / p95 / p99 | %v / %v / %v |\n",
			st.SojournP50.Round(time.Microsecond), st.SojournP95.Round(time.Microsecond),
			st.SojournP99.Round(time.Microsecond))
	}
	if rep.ModeledP99 > 0 {
		s += fmt.Sprintf("| modeled p99 (M/M/c at achieved load) | %v (%+.1f%% vs server p99) |\n",
			rep.ModeledP99.Round(time.Microsecond), rep.ModelError*100)
	}
	if failP99 > 0 {
		s += fmt.Sprintf("| p99 objective | %v |\n", failP99)
	}
	s += fmt.Sprintf("| verdict | %s |\n", verdict)
	return s
}
