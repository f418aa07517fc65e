// The SLO engine: named latency objectives over internal/telemetry
// histograms and gauges, evaluated by a background watcher, with the
// flight recorder as the evidence store. An objective is a one-line
// contract like
//
//	perfeng_serve_iteration_seconds.p99 < 250ms
//	go_gc_pause_burn_ratio.max < 0.05
//	perfeng_sched_steal_failure_ratio.max < 0.9
//
// Quantile objectives interpolate the histogram's log2 buckets
// (Histogram.Quantile, internal/stats.Percentile rank convention);
// ceiling objectives watch a gauge — the runtime collector's derived
// GC-pause-burn and steal-failure ratios are the intended triggers.
// On violation the engine links the objective to the histogram's
// retained exemplar (the span behind the extreme observation) and can
// drain the black box into a session whose "slo" track names the
// violated objective at exactly that interval.
package flight

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"perfeng/internal/obs"
	"perfeng/internal/telemetry"
)

// ObjectiveKind discriminates how an objective reads its metric.
type ObjectiveKind int

// Objective kinds.
const (
	// KindQuantile compares a histogram quantile against the threshold.
	KindQuantile ObjectiveKind = iota
	// KindCeiling compares a gauge's current value against the threshold.
	KindCeiling
)

// Objective is one parsed latency/ratio objective.
type Objective struct {
	// Raw is the normalized source text ("metric.p99<20ms") — the
	// objective's name everywhere it surfaces: the violation counter's
	// label, the "slo" track span, console lines.
	Raw string
	// Metric names the registry series the objective watches.
	Metric string
	Kind   ObjectiveKind
	// Q is the quantile in [0,1] (KindQuantile only).
	Q float64
	// Threshold is the bound, in the metric's unit (seconds for
	// duration histograms).
	Threshold float64
}

// ParseObjective parses "metric.p99<20ms" / "metric.p99.9<1s" /
// "metric.max<0.05". The threshold accepts time.ParseDuration syntax
// (converted to seconds) or a bare finite float. Spaces around tokens
// are allowed.
func ParseObjective(s string) (Objective, error) {
	lhs, rhs, ok := strings.Cut(s, "<")
	if !ok {
		return Objective{}, fmt.Errorf("flight: objective %q: want metric.pNN<bound or metric.max<bound", s)
	}
	lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
	// Metric names cannot contain '.', so the first dot splits metric
	// from selector (and "p99.9" keeps its fractional part).
	metric, sel, ok := strings.Cut(lhs, ".")
	if !ok || metric == "" || sel == "" {
		return Objective{}, fmt.Errorf("flight: objective %q: missing .pNN or .max selector", s)
	}
	var threshold float64
	if d, err := time.ParseDuration(rhs); err == nil {
		threshold = d.Seconds()
	} else if f, err := strconv.ParseFloat(rhs, 64); err == nil {
		threshold = f
	} else {
		return Objective{}, fmt.Errorf("flight: objective %q: bound %q is neither a duration nor a number", s, rhs)
	}
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return Objective{}, fmt.Errorf("flight: objective %q: bound %q is not finite", s, rhs)
	}
	o := Objective{Metric: metric, Threshold: threshold, Raw: lhs + "<" + rhs}
	switch {
	case sel == "max":
		o.Kind = KindCeiling
	case len(sel) > 1 && sel[0] == 'p':
		pct, err := strconv.ParseFloat(sel[1:], 64)
		if err != nil || !(pct >= 0 && pct <= 100) { // NaN fails both
			return Objective{}, fmt.Errorf("flight: objective %q: bad quantile selector %q", s, sel)
		}
		o.Kind, o.Q = KindQuantile, pct/100
	default:
		return Objective{}, fmt.Errorf("flight: objective %q: selector %q is neither pNN nor max", s, sel)
	}
	return o, nil
}

// ParseObjectives parses a comma-separated objective list (the -slo
// flag's format), skipping empty elements.
func ParseObjectives(s string) ([]Objective, error) {
	parts := strings.Split(s, ",")
	out := make([]Objective, 0, len(parts))
	for _, part := range parts {
		if strings.TrimSpace(part) == "" {
			continue
		}
		o, err := ParseObjective(part)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// Violation is one objective found out of bounds.
type Violation struct {
	Objective Objective
	// Value is the observed quantile or gauge reading.
	Value float64
	// Exemplar is the trace reference behind the histogram's extreme
	// observation, when the metric carries one.
	Exemplar    telemetry.Exemplar
	HasExemplar bool
}

// String renders the violation for console output.
func (v Violation) String() string {
	s := fmt.Sprintf("SLO violated: %s (observed %.6g)", v.Objective.Raw, v.Value)
	if v.HasExemplar {
		s += fmt.Sprintf(" exemplar %s/%s dur=%s", v.Exemplar.Track, v.Exemplar.Name, v.Exemplar.Dur)
	}
	return s
}

// Engine evaluates objectives against a registry on demand or on a
// background ticker, counts violations into the registry, and fires a
// callback (rate-limited per objective by Cooldown) the serve loop uses
// to dump the black box.
type Engine struct {
	reg *telemetry.Registry
	rec *Recorder

	// Cooldown is the minimum spacing between onViolation firings per
	// objective — a violated objective usually stays violated, and one
	// flight dump per incident beats one per tick. Set before Start;
	// zero fires on every violating evaluation.
	Cooldown time.Duration

	objectives  []Objective
	onViolation func(Violation)
	violations  *telemetry.CounterFamily
	// violCounters are the per-objective violation counters, resolved
	// once here so the watcher-tick Check path never does a label-map
	// lookup.
	violCounters []*telemetry.Counter
	evals        *telemetry.Counter

	mu       sync.Mutex
	lastFire map[string]time.Time

	stop chan struct{}
	done chan struct{}
}

// NewEngine builds an engine watching objectives on reg, draining
// evidence from rec (nil is allowed: dumps are then empty sessions).
// onViolation may be nil. Violations are counted in the
// perfeng_slo_violations family, labeled by objective.
func NewEngine(reg *telemetry.Registry, rec *Recorder, objectives []Objective, onViolation func(Violation)) *Engine {
	e := &Engine{
		reg: reg, rec: rec,
		Cooldown:    30 * time.Second,
		objectives:  objectives,
		onViolation: onViolation,
		violations: reg.CounterFamily("perfeng_slo_violations",
			"SLO evaluations that found the objective out of bounds.", "objective"),
		evals: reg.Counter("perfeng_slo_evaluations",
			"SLO evaluation passes completed."),
		lastFire: make(map[string]time.Time),
	}
	e.violCounters = make([]*telemetry.Counter, len(objectives))
	for i, o := range objectives {
		//perfvet:ignore:allocattr label resolution runs once at engine construction, not per watcher tick
		e.violCounters[i] = e.violations.With(o.Raw)
	}
	return e
}

// Objectives returns the engine's objective list.
func (e *Engine) Objectives() []Objective { return e.objectives }

// Check evaluates every objective once, returning the violations found.
// Objectives whose metric has no data yet are skipped. Each violation
// increments its counter; the callback fires only outside the
// objective's cooldown window.
func (e *Engine) Check() []Violation {
	//perfvet:ignore:preallochint the healthy steady state is zero violations; preallocating len(objectives) would allocate on every watcher tick to serve the rare unhappy path
	var out []Violation
	now := time.Now()
	for i, o := range e.objectives {
		v, ok := e.evaluate(o)
		if !ok {
			continue
		}
		out = append(out, v)
		e.violCounters[i].Inc()
		if e.onViolation == nil {
			continue
		}
		e.mu.Lock()
		last, seen := e.lastFire[o.Raw]
		fire := !seen || e.Cooldown <= 0 || now.Sub(last) >= e.Cooldown
		if fire {
			e.lastFire[o.Raw] = now
		}
		e.mu.Unlock()
		if fire {
			e.onViolation(v)
		}
	}
	e.evals.Inc()
	return out
}

// evaluate reads one objective; ok reports a violation.
func (e *Engine) evaluate(o Objective) (Violation, bool) {
	switch o.Kind {
	case KindQuantile:
		h := e.reg.FindHistogram(o.Metric)
		if h == nil || h.Count() == 0 {
			return Violation{}, false
		}
		q := h.Quantile(o.Q)
		if q <= o.Threshold {
			return Violation{}, false
		}
		v := Violation{Objective: o, Value: q}
		v.Exemplar, v.HasExemplar = h.Exemplar()
		return v, true
	case KindCeiling:
		g := e.reg.FindGauge(o.Metric)
		if g == nil {
			return Violation{}, false
		}
		val := g.Value()
		if val <= o.Threshold {
			return Violation{}, false
		}
		return Violation{Objective: o, Value: val}, true
	}
	return Violation{}, false
}

// Start launches the background watcher, evaluating every interval
// (minimum 10ms; zero means 1s). Idempotent while running.
func (e *Engine) Start(interval time.Duration) {
	if e.stop != nil {
		return
	}
	if interval <= 0 {
		interval = time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.Check()
			}
		}
	}()
}

// Stop halts the watcher and waits for it to exit. Idempotent.
func (e *Engine) Stop() {
	if e.stop == nil {
		return
	}
	close(e.stop)
	<-e.done
	e.stop, e.done = nil, nil
}

// DumpSession drains the engine's recorder into a session and, when v
// is non-nil, stamps the violation onto an "slo" track: a span named by
// the violated objective at the exemplar's exact interval (or an
// instant at the drain time when the metric carried no exemplar). The
// session is fully valid for the standard obs exporters, so the dump
// lands in Perfetto with the evidence one click from the objective.
func (e *Engine) DumpSession(name string, v *Violation) *obs.Session {
	s := e.rec.BuildSession(name)
	if v != nil {
		t := s.Track("slo")
		if v.HasExemplar {
			t.AddSpanOffsets(v.Objective.Raw, nil,
				v.Exemplar.Start, v.Exemplar.Start+v.Exemplar.Dur, map[string]any{
					"observed": v.Value,
					"exemplar": v.Exemplar.Track + "/" + v.Exemplar.Name,
				})
		} else {
			t.InstantAt(v.Objective.Raw, e.rec.Now(), map[string]any{"observed": v.Value})
		}
	}
	return s
}
