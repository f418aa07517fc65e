// The tune subcommand: close the measure→model→optimize loop. It runs
// the successive-halving + hill-climbing search over the built-in
// tunables, persists Welch-verified winners to TUNED.json, and doubles
// as the CI tuning gate:
//
//   - no valid cache (or -force): full search, write the cache and a
//     markdown trial summary. By construction every persisted entry
//     beats-or-matches the defaults (the search only replaces the
//     incumbent through the Welch comparator), so a fresh search can
//     only fail on measurement errors.
//   - valid cache for this environment: verify mode — re-measure each
//     cached winner against today's defaults and fail (per -fail, with
//     Welch significance required) if a tuned config has gone stale
//     enough to lose. This is what makes the CI cache safe: a hit
//     skips the expensive search but still proves the configs hold.
//   - -check: only compare the cache's env fingerprint against this
//     host and warn on mismatch (bench-gate uses this; a foreign
//     fingerprint is a warning there, not a failure).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"perfeng/internal/benchgate"
	"perfeng/internal/critpath"
	"perfeng/internal/sched"
	"perfeng/internal/stats"
	"perfeng/internal/telemetry"
	"perfeng/internal/tune"
	"perfeng/internal/tune/tunables"
)

func runTune(args []string) {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	var (
		kernelsFlag = fs.String("kernels", "", "comma-separated kernel names (default: all built-in tunables)")
		smoke       = fs.Bool("smoke", false, "reduced shapes and faster protocol (CI tune-gate)")
		cachePath   = fs.String("cache", tune.DefaultPath, "tuning cache path")
		mdPath      = fs.String("md", "", "write a markdown trial summary to this file")
		github      = fs.Bool("github", false, "emit GitHub Actions ::error/::warning annotations")
		check       = fs.Bool("check", false, "only check the cache's env fingerprint against this host (warn on mismatch, never fail)")
		force       = fs.Bool("force", false, "re-search even when a valid cache exists")
		alpha       = fs.Float64("alpha", 0.05, "significance level for the Welch-t promotion comparator")
		minEffect   = fs.Float64("min-effect", 0.05, "practical-effect floor: minimum relative win to promote")
		addr        = fs.String("addr", "", "serve live telemetry (/metrics) on this address during the search")
		hintsPath   = fs.String("hints", "", "order the search by critpath hints from this file (perfeng critpath -hints)")
	)
	thresholds := registerThresholdFlags(fs, 1.0, 0.95)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: perfeng tune [flags]")
		fmt.Fprintln(os.Stderr, "searches per-kernel scheduling/tiling configs (successive halving + hill")
		fmt.Fprintln(os.Stderr, "climbing), promotes only Welch-t-verified wins, persists them to TUNED.json,")
		fmt.Fprintln(os.Stderr, "and verifies an existing cache instead of re-searching when one is valid.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	host := tune.HostEnvironment()

	if *check {
		checkTuneCache(*cachePath, host, *github)
		return
	}

	// Tuning runs are workloads: publish search and lookup activity so
	// perfeng serve-style scrapes (and the step that reads /metrics)
	// see trials, prunes and best-so-far like any other run.
	reg := telemetry.NewRegistry()
	tune.EnableTelemetry(reg)
	sched.EnableTelemetry(reg)
	defer func() {
		tune.EnableTelemetry(nil)
		sched.EnableTelemetry(nil)
	}()
	if *addr != "" {
		server := telemetry.NewServer(*addr, reg, nil)
		bound, err := server.Start()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("perfeng tune: telemetry on http://%s/metrics\n", bound)
	}

	ts := tunables.ByName(splitKernels(*kernelsFlag))
	if len(ts) == 0 {
		fatal(fmt.Errorf("tune: no tunables match -kernels=%q", *kernelsFlag))
	}
	if *hintsPath != "" {
		ts = orderByHints(ts, *hintsPath)
	}

	// A valid same-environment cache switches to verify mode: prove the
	// persisted configs still hold instead of re-searching.
	if !*force {
		if c, err := tune.Load(*cachePath); err == nil && c.EnvMatches(host) {
			verifyTuneCache(c, ts, *smoke, *alpha, thresholds, *mdPath, *github)
			return
		}
	}

	searchTune(ts, *smoke, *alpha, *minEffect, *cachePath, *mdPath, *github, host, thresholds)
}

// orderByHints reorders the tunables by a critpath hint file: kernels
// the causal analysis predicts would move end-to-end time the most are
// searched first, so a budget-limited (or interrupted) run spends its
// measurements where the DAG says they pay off. A hint matches a
// tunable when either name contains the other (hint targets are span
// names like "matmul/parallel"); unmatched tunables keep their original
// order after the matched ones.
func orderByHints(ts []tunables.Tunable, path string) []tunables.Tunable {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	hints, err := critpath.ReadHints(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	rank := func(name string) int {
		ln := strings.ToLower(name)
		for i, h := range hints {
			lt := strings.ToLower(h.Target)
			if strings.Contains(lt, ln) || strings.Contains(ln, lt) {
				return i
			}
		}
		return len(hints)
	}
	sort.SliceStable(ts, func(i, j int) bool { return rank(ts[i].Name) < rank(ts[j].Name) })
	for _, t := range ts {
		if r := rank(t.Name); r < len(hints) {
			fmt.Printf("perfeng tune: hint #%d %s → searching %s early (predicted gain %.1f%%)\n",
				r+1, hints[r].Target, t.Name, hints[r].Gain)
		}
	}
	return ts
}

func splitKernels(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, k := range parts {
		if k = strings.TrimSpace(k); k != "" {
			out = append(out, k)
		}
	}
	return out
}

// checkTuneCache implements -check: fingerprint comparison only.
func checkTuneCache(path string, host benchgate.Environment, github bool) {
	c, err := tune.Load(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("perfeng tune: no cache at %s — nothing to check\n", path)
			return
		}
		fatal(err)
	}
	if !c.EnvMatches(host) {
		msg := fmt.Sprintf("%s was tuned on [%s], this host is [%s] — tuned configs will not be applied here",
			path, c.Env, host)
		if github {
			fmt.Printf("::warning title=tune env mismatch::%s\n", msg)
		}
		fmt.Println("perfeng tune: WARNING:", msg)
		return
	}
	fmt.Printf("perfeng tune: %s matches this environment (%d entries)\n", path, len(c.Entries))
}

// searchTune runs the full search and persists the winners.
func searchTune(ts []tunables.Tunable, smoke bool, alpha, minEffect float64,
	cachePath, mdPath string, github bool,
	host benchgate.Environment, thresholds *speedupThresholds) {

	opts := tune.Options{Alpha: alpha, MinEffect: minEffect}
	if smoke {
		opts.InitialReps = 3
		opts.FinalReps = 8
		opts.HillSteps = 3
	}

	cache := &tune.Cache{Env: host, CreatedAt: time.Now().UTC().Format(time.RFC3339)}
	results := make([]*tune.Result, 0, len(ts))
	failed := false
	for _, t := range ts {
		n := t.Shape(smoke)
		fmt.Printf("perfeng tune: %s n=%d searching...\n", t.Name, n)
		//perfvet:ignore:allocattr the candidate list is the search's deliverable, built once per tunable; measurement dominates
		res, err := tune.Search(t.Name, n, tune.Config{}, t.Grid(n), t.NewMeasurer(n, smoke), opts)
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
		cache.Entries = append(cache.Entries, tune.Entry{
			Kernel: res.Kernel, N: res.N, Config: res.Best,
			DefaultNs: res.DefaultNs, TunedNs: res.BestNs,
			Speedup: res.Speedup, P: res.Welch.P,
			Improved: res.Improved, Trials: len(res.Trials),
		})
		verdict := thresholds.verdict(res.Speedup)
		if verdict == "FAIL" {
			failed = true
		}
		fmt.Printf("perfeng tune: %-10s n=%-7d best %-22s speedup %.2fx  p=%.3g  trials=%d  [%s]\n",
			res.Kernel, res.N, res.Best, res.Speedup, res.Welch.P, len(res.Trials), verdict)
		if github {
			thresholds.annotate(verdict, "tune "+res.Kernel,
				"tuned config "+res.Best.String()+" vs defaults:", res.Speedup)
		}
	}

	if err := cache.Save(cachePath); err != nil {
		fatal(err)
	}
	fmt.Printf("perfeng tune: wrote %s (%d entries, env %s)\n", cachePath, len(cache.Entries), host)
	writeTuneMarkdown(mdPath, "search", results)
	if failed {
		fmt.Fprintln(os.Stderr, "perfeng tune: FAIL — a tuned config is slower than the defaults")
		os.Exit(1)
	}
}

// verifyTuneCache re-measures each cached winner against the defaults
// and fails only when a tuned config now loses significantly (Welch at
// alpha) and past the -fail speedup floor — beat-or-match semantics
// with the same noise discipline as the search.
func verifyTuneCache(c *tune.Cache, ts []tunables.Tunable, smoke bool,
	alpha float64, thresholds *speedupThresholds, mdPath string, github bool) {

	reps := 10
	if smoke {
		reps = 8
	}
	fmt.Printf("perfeng tune: valid cache for this environment — verifying %d entries (use -force to re-search)\n",
		len(c.Entries))
	results := make([]*tune.Result, 0, len(ts))
	failed := false
	for _, t := range ts {
		n := t.Shape(smoke)
		e, ok := c.Find(t.Name, n)
		if !ok {
			fmt.Printf("perfeng tune: %-10s n=%-7d not in cache — skipping (re-search with -force)\n", t.Name, n)
			continue
		}
		m := t.NewMeasurer(n, smoke)
		defSamples, err := m(tune.Config{}, reps)
		if err != nil {
			fatal(err)
		}
		tunedSamples := defSamples
		if !e.Config.IsDefault() {
			if tunedSamples, err = m(e.Config, reps); err != nil {
				fatal(err)
			}
		}
		defNs, tunedNs := stats.Mean(defSamples), stats.Mean(tunedSamples)
		speedup := 1.0
		if tunedNs > 0 {
			speedup = defNs / tunedNs
		}
		// The -fail floor is the practical filter, so the comparator
		// needs no effect floor of its own.
		v, _ := stats.Compare(defSamples, tunedSamples, alpha, 0)
		verdict := thresholds.verdict(speedup)
		// Losing within noise is a tie, not a regression: require the
		// loss to be statistically real before failing the gate.
		if verdict == "FAIL" && !v.Significant {
			verdict = "warn"
		}
		if verdict == "FAIL" {
			failed = true
		}
		results = append(results, &tune.Result{
			Kernel: e.Kernel, N: e.N, Default: tune.Config{}, Best: e.Config,
			Improved: e.Improved, DefaultNs: defNs, BestNs: tunedNs,
			Speedup: speedup, Welch: v.Welch,
		})
		fmt.Printf("perfeng tune: %-10s n=%-7d cached %-22s speedup %.2fx  p=%.3g  [%s]\n",
			e.Kernel, e.N, e.Config, speedup, v.P, verdict)
		if github {
			thresholds.annotate(verdict, "tune "+e.Kernel,
				"cached config "+e.Config.String()+" vs defaults:", speedup)
		}
	}
	writeTuneMarkdown(mdPath, "verify", results)
	if failed {
		fmt.Fprintln(os.Stderr, "perfeng tune: FAIL — a cached config is now significantly slower than the defaults")
		os.Exit(1)
	}
}

// writeTuneMarkdown renders the per-kernel summary table plus, for
// search runs, a per-kernel trial breakdown — the artifact the CI job
// appends to the step summary.
func writeTuneMarkdown(path, mode string, results []*tune.Result) {
	if path == "" {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## Tuning %s summary\n\n", mode)
	b.WriteString("| kernel | n | config | default ns/op | tuned ns/op | speedup | p | improved |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range results {
		fmt.Fprintf(&b, "| %s | %d | `%s` | %.0f | %.0f | %.2fx | %.3g | %v |\n",
			r.Kernel, r.N, r.Best, r.DefaultNs, r.BestNs, r.Speedup, r.Welch.P, r.Improved)
	}
	if mode == "search" {
		b.WriteString("\n### Trials\n\n")
		for _, r := range results {
			pruned := 0
			stages := map[string]int{}
			for _, t := range r.Trials {
				if t.Pruned {
					pruned++
				}
				stages[t.Stage]++
			}
			keys := make([]string, 0, len(stages))
			for k := range stages {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "- **%s** (n=%d): %d trials, %d pruned, %d promotions —",
				r.Kernel, r.N, len(r.Trials), pruned, len(r.Promotions))
			for _, k := range keys {
				fmt.Fprintf(&b, " %s:%d", k, stages[k])
			}
			b.WriteString("\n")
			for _, p := range r.Promotions {
				fmt.Fprintf(&b, "  - %s: `%s` → `%s` (%.1f%% faster, p=%.3g)\n",
					p.Stage, p.From, p.To, 100*p.Delta, p.Welch.P)
			}
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("perfeng tune: wrote %s\n", path)
}
