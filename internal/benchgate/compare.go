package benchgate

import (
	"fmt"
	"sort"

	"perfeng/internal/stats"
)

// Comparison of a candidate run against a recorded baseline. The verdict
// logic is the course's measurement methodology turned into a gate:
//
//  1. outlier rejection (Tukey fences) on both ns/op series, because one
//     descheduled repetition must not decide a build;
//  2. stats.Compare on the cleaned series: Welch's t-test is the
//     *statistical* filter (a difference only counts when p < alpha),
//     and the minimum practical effect size max(MinEffect,
//     NoiseMargin*Noise) the *practical* one: a significant 0.4% drift
//     is still noise at the scale CI cares about.
//
// Only a difference that passes both filters becomes a Regression (or an
// Improvement). Everything else is Unchanged.

// Config tunes the gate.
type Config struct {
	// Alpha is the family-wise significance level (default 0.05). It is
	// Bonferroni-corrected across the head-to-head comparisons of one
	// report, so gating ten benchmarks is no more likely to false-fail
	// than gating one.
	Alpha float64
	// MinEffect is the minimum practical relative change in mean ns/op
	// (default 0.05 = 5%); smaller deltas never fail the gate no matter
	// how significant.
	MinEffect float64
	// NoiseMargin scales each benchmark's recorded cross-run noise floor
	// (BaselineBench.Noise) into the practical threshold: a regression
	// must exceed max(MinEffect, NoiseMargin*Noise) to gate. Default 1.5.
	// Machine-state drift between runs is systematic, so it inflates the
	// mean without inflating within-run variance — the t-test alone
	// cannot reject it, the recorded floor can.
	NoiseMargin float64
	// MinSamples is the minimum per-side sample count after outlier
	// rejection for a statistical verdict (default 4).
	MinSamples int
	// OutlierK is the Tukey fence multiplier for pre-test outlier
	// rejection (default 1.5); negative disables rejection.
	OutlierK float64
	// StrictEnv makes environment mismatches fail the gate instead of
	// downgrading verdicts to advisory.
	StrictEnv bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 0.05
	}
	if c.MinEffect <= 0 {
		c.MinEffect = 0.05
	}
	if c.NoiseMargin <= 0 {
		c.NoiseMargin = 1.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.OutlierK == 0 {
		c.OutlierK = 1.5
	}
	return c
}

// Verdict classifies one benchmark's comparison.
type Verdict int

// Verdicts, ordered by severity for report sorting.
const (
	// Regression: statistically significant and practically large slowdown.
	Regression Verdict = iota
	// AllocRegression: the benchmark allocates more per op than the
	// baseline by at least MinEffect (allocs are near-deterministic, so
	// no t-test is needed).
	AllocRegression
	// Indeterminate: too few samples for a statistical verdict.
	Indeterminate
	// Missing: in the baseline but absent from the candidate run.
	Missing
	// New: in the candidate run but absent from the baseline.
	New
	// Unchanged: no significant-and-large difference.
	Unchanged
	// Improvement: statistically significant and practically large speedup.
	Improvement
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	return [...]string{"REGRESSION", "ALLOC-REGRESSION", "indeterminate",
		"missing", "new", "unchanged", "improvement"}[v]
}

// BenchComparison is the per-benchmark verdict.
type BenchComparison struct {
	Name    string  `json:"name"`
	Verdict Verdict `json:"-"`
	// VerdictName is the JSON rendering of Verdict.
	VerdictName string `json:"verdict"`
	// BaseMean/CandMean are mean ns/op after outlier rejection.
	BaseMean float64 `json:"base_ns_per_op,omitempty"`
	CandMean float64 `json:"cand_ns_per_op,omitempty"`
	// BaseCV/CandCV are the coefficients of variation of the cleaned series.
	BaseCV float64 `json:"base_cv,omitempty"`
	CandCV float64 `json:"cand_cv,omitempty"`
	// Delta is (CandMean-BaseMean)/BaseMean; positive = slower.
	Delta float64 `json:"delta,omitempty"`
	// Threshold is the practical effect floor applied to this benchmark:
	// max(MinEffect, NoiseMargin * recorded cross-run noise).
	Threshold float64 `json:"threshold,omitempty"`
	// P, T, DF are the Welch test outcome on ns/op.
	P  float64 `json:"p,omitempty"`
	T  float64 `json:"t,omitempty"`
	DF float64 `json:"df,omitempty"`
	// BaseN/CandN are sample counts after outlier rejection.
	BaseN int `json:"base_n,omitempty"`
	CandN int `json:"cand_n,omitempty"`
	// AllocDelta/BytesDelta are relative changes in allocs/op and B/op
	// means (NaN-free: 0 when either side lacks -benchmem data).
	AllocDelta float64 `json:"alloc_delta,omitempty"`
	BytesDelta float64 `json:"bytes_delta,omitempty"`
	Note       string  `json:"note,omitempty"`
}

// Report is the full comparison of a candidate run against a baseline.
type Report struct {
	Config      Config      `json:"config"`
	BaseEnv     Environment `json:"base_env"`
	CandEnv     Environment `json:"cand_env"`
	EnvMatch    bool        `json:"env_match"`
	BaseVersion int         `json:"base_version,omitempty"`
	// EffectiveAlpha is the Bonferroni-corrected per-benchmark level
	// actually applied: Alpha / #head-to-head comparisons.
	EffectiveAlpha float64           `json:"effective_alpha"`
	Comparisons    []BenchComparison `json:"comparisons"`
	Malformed      []string          `json:"malformed_lines,omitempty"`
}

// Compare runs the gate's statistics on every benchmark of the baseline
// and candidate. Comparisons are sorted most-severe-first, ties by name.
func Compare(base, cand *Baseline, cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{
		Config:      cfg,
		BaseEnv:     base.Env,
		CandEnv:     cand.Env,
		EnvMatch:    base.Env.Matches(cand.Env),
		BaseVersion: base.Version,
	}
	shared := 0
	for _, name := range base.Names() {
		if _, ok := cand.Benchmarks[name]; ok {
			shared++
		}
	}
	r.EffectiveAlpha = cfg.Alpha
	if shared > 1 {
		r.EffectiveAlpha = cfg.Alpha / float64(shared)
	}
	for _, name := range base.Names() {
		bb := base.Benchmarks[name]
		cb, ok := cand.Benchmarks[name]
		if !ok {
			r.Comparisons = append(r.Comparisons, BenchComparison{
				Name: name, Verdict: Missing,
				Note: "in baseline but not in candidate run; record a fresh baseline to retire it",
			})
			continue
		}
		r.Comparisons = append(r.Comparisons, compareBench(name, bb, cb, cfg, r.EffectiveAlpha))
	}
	for _, name := range cand.Names() {
		if _, ok := base.Benchmarks[name]; !ok {
			cc := cand.Benchmarks[name]
			r.Comparisons = append(r.Comparisons, BenchComparison{
				Name: name, Verdict: New,
				CandMean: stats.Mean(cc.NsPerOp), CandN: len(cc.NsPerOp),
				Note: "benchmark not in baseline; record a new baseline to cover it",
			})
		}
	}
	sort.SliceStable(r.Comparisons, func(i, j int) bool {
		a, b := r.Comparisons[i], r.Comparisons[j]
		if a.Verdict != b.Verdict {
			return a.Verdict < b.Verdict
		}
		return a.Name < b.Name
	})
	for i := range r.Comparisons {
		r.Comparisons[i].VerdictName = r.Comparisons[i].Verdict.String()
	}
	return r
}

// compareBench produces one benchmark's verdict at the (already
// Bonferroni-corrected) per-benchmark significance level alpha.
func compareBench(name string, base, cand BaselineBench, cfg Config, alpha float64) BenchComparison {
	bs, cs := base.NsPerOp, cand.NsPerOp
	if cfg.OutlierK >= 0 {
		bs = stats.RejectIQR(bs, cfg.OutlierK)
		cs = stats.RejectIQR(cs, cfg.OutlierK)
	}
	c := BenchComparison{
		Name:     name,
		BaseMean: stats.Mean(bs), CandMean: stats.Mean(cs),
		BaseCV: stats.CoefficientOfVariation(bs),
		CandCV: stats.CoefficientOfVariation(cs),
		BaseN:  len(bs), CandN: len(cs),
		Delta: relDelta(bs, cs),
	}
	c.AllocDelta = relDelta(base.AllocsPerOp, cand.AllocsPerOp)
	c.BytesDelta = relDelta(base.BytesPerOp, cand.BytesPerOp)

	if len(bs) < cfg.MinSamples || len(cs) < cfg.MinSamples {
		c.Verdict = Indeterminate
		c.Note = fmt.Sprintf("need >= %d samples per side after outlier rejection (have %d vs %d)",
			cfg.MinSamples, len(bs), len(cs))
		return c
	}
	threshold := max(cfg.MinEffect, cfg.NoiseMargin*base.Noise)
	v, err := stats.Compare(bs, cs, alpha, threshold)
	if err != nil {
		c.Verdict = Indeterminate
		c.Note = err.Error()
		return c
	}
	c.P, c.T, c.DF, c.Threshold = v.P, v.T, v.DF, threshold

	// The time and allocation checks are independent: a change that trades
	// allocations for speed (caching, buffering) is both a wall-clock
	// improvement and an alloc regression, and the gate must still see the
	// regression. Severity picks the reported verdict — Regression >
	// AllocRegression > Improvement — and the note carries the other axis.
	allocReg := c.AllocDelta >= cfg.MinEffect
	switch {
	case v.Significant && c.Delta > 0:
		c.Verdict = Regression
		c.Note = fmt.Sprintf("%.1f%% slower (p=%.4f)", 100*c.Delta, c.P)
		if allocReg {
			c.Note += fmt.Sprintf("; allocs/op up %.1f%%", 100*c.AllocDelta)
		}
	case allocReg:
		// Allocation counts are near-deterministic: a mean shift beyond
		// the practical threshold is a real change, not noise.
		c.Verdict = AllocRegression
		c.Note = fmt.Sprintf("allocs/op up %.1f%%", 100*c.AllocDelta)
		if v.Significant && c.Delta < 0 {
			c.Note += fmt.Sprintf(" despite %.1f%% time improvement (p=%.4f)", -100*c.Delta, c.P)
		}
	case v.Significant && c.Delta < 0:
		c.Verdict = Improvement
		c.Note = fmt.Sprintf("%.1f%% faster (p=%.4f)", -100*c.Delta, c.P)
	default:
		c.Verdict = Unchanged
	}
	return c
}

// relDelta returns (mean(cand)-mean(base))/mean(base), or 0 when either
// series is empty or the base mean is 0.
func relDelta(base, cand []float64) float64 {
	if len(base) == 0 || len(cand) == 0 {
		return 0
	}
	mb := stats.Mean(base)
	if mb == 0 {
		return 0
	}
	return (stats.Mean(cand) - mb) / mb
}
