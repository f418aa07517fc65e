// Package core implements the toolbox's centerpiece: the seven-stage
// performance-engineering process of Section 2.3 as an executable engine.
//
//	Stage 1  Collect and analyse performance requirements.
//	Stage 2  Understand current performance (measure the baseline).
//	Stage 3  Assess feasibility of the requirements (roofline headroom).
//	Stage 4  Assess suitable approaches (bound classification -> advice).
//	Stage 5  Apply tuning and optimization (measure candidate variants).
//	Stage 6  Assess progress and iterate back to 3-5.
//	Stage 7  Analyse and document the process and the final result.
//
// An Engagement binds an Application (baseline + candidate variants with
// a work/traffic characterization) to a machine model and a requirement,
// runs the stages, and emits the stage-7 report. This is the "performance
// engineering toolbox" the course wants students to assemble, in library
// form.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"perfeng/internal/machine"
	"perfeng/internal/metrics"
	"perfeng/internal/profile"
	"perfeng/internal/report"
	"perfeng/internal/roofline"
)

// Variant is one implementation of the application.
type Variant struct {
	Name string
	// Run executes the variant once on the standard problem instance.
	Run func()
	// Procs is the worker count the variant uses (1 = sequential).
	Procs int
}

// Application describes the code under engineering.
type Application struct {
	Name string
	// FLOPs and Bytes characterize one execution (for roofline placement).
	FLOPs, Bytes float64
	Baseline     Variant
	// Candidates are the optimization ladder measured in stage 5.
	Candidates []Variant
}

// Validate checks the application description.
func (a *Application) Validate() error {
	if a.Name == "" {
		return errors.New("core: application needs a name")
	}
	if a.Baseline.Run == nil {
		return errors.New("core: application needs a runnable baseline")
	}
	for _, v := range a.Candidates {
		if v.Run == nil {
			return fmt.Errorf("core: candidate %q is not runnable", v.Name)
		}
	}
	return nil
}

// RequirementKind selects how the requirement is judged.
type RequirementKind int

// Requirement kinds.
const (
	// SpeedupAtLeast requires best/baseline >= Target.
	SpeedupAtLeast RequirementKind = iota
	// RuntimeBelow requires the best median runtime <= Target seconds.
	RuntimeBelow
	// FractionOfRoofline requires achieved/attainable >= Target.
	FractionOfRoofline
)

// String implements fmt.Stringer.
func (k RequirementKind) String() string {
	return [...]string{"speedup at least", "runtime below", "fraction of roofline at least"}[k]
}

// Requirement is the stage-1 artifact.
type Requirement struct {
	Kind   RequirementKind
	Target float64
}

// String implements fmt.Stringer.
func (r Requirement) String() string {
	switch r.Kind {
	case RuntimeBelow:
		return fmt.Sprintf("%s %s", r.Kind, metrics.FormatSeconds(r.Target))
	default:
		return fmt.Sprintf("%s %.2f", r.Kind, r.Target)
	}
}

// Validate checks the requirement.
func (r Requirement) Validate() error {
	if r.Target <= 0 {
		return errors.New("core: requirement target must be positive")
	}
	return nil
}

// Engagement binds an application to a machine and a requirement.
type Engagement struct {
	App         *Application
	CPU         machine.CPU
	Requirement Requirement
	// Runner configures the measurement protocol (DefaultConfig when
	// zero).
	Runner metrics.RunnerConfig
}

// VariantResult is a measured variant.
type VariantResult struct {
	Variant     Variant
	Measurement *metrics.Measurement
	Speedup     float64 // vs baseline
	Analysis    roofline.Analysis
}

// Outcome is everything the engagement produced, stage by stage.
type Outcome struct {
	Requirement Requirement      // stage 1
	Baseline    *VariantResult   // stage 2
	Model       *roofline.Model  // stage 3
	Feasible    bool             // stage 3
	Feasibility string           // stage 3 narrative
	Advice      []string         // stage 4
	Variants    []*VariantResult // stage 5, baseline first
	Best        *VariantResult   // stage 6
	Satisfied   bool             // stage 6
	// Significance is the Welch t-test verdict of best vs baseline
	// (nil when the baseline itself is best or samples are too few).
	Significance *metrics.Comparison // stage 6
	// Profile is the flat profile of where the engagement's own wall
	// clock went: one measure/<variant> region per variant, whose calls
	// are that variant's runs.
	Profile *profile.Profiler
	Report  *report.Report // stage 7
}

// Run executes the seven stages.
func (e *Engagement) Run() (*Outcome, error) {
	// Stage 1: requirements.
	if err := e.App.Validate(); err != nil {
		return nil, err
	}
	if err := e.Requirement.Validate(); err != nil {
		return nil, err
	}
	if err := e.CPU.Validate(); err != nil {
		return nil, err
	}
	out := &Outcome{Requirement: e.Requirement, Profile: profile.New()}
	runner := metrics.NewRunner(e.Runner)
	model := roofline.FromCPU(e.CPU)
	out.Model = model

	// Stages 2 and 5: measure the baseline and every candidate in one
	// round-robin protocol, so a load burst hits them alike.
	variants := append([]Variant{e.App.Baseline}, e.App.Candidates...)
	ops := make([]metrics.Op, len(variants))
	for i, v := range variants {
		region := "measure/" + v.Name
		ops[i] = metrics.Op{Name: e.App.Name + "/" + v.Name, FLOPs: e.App.FLOPs, Bytes: e.App.Bytes,
			Run: func() { _ = out.Profile.Do(region, v.Run) }}
	}
	ms := runner.MeasureAll(ops)
	for i, m := range ms {
		if variants[i].Procs > 0 {
			m.Procs = variants[i].Procs
		}
		out.Variants = append(out.Variants, &VariantResult{
			Variant:     variants[i],
			Measurement: m,
			Speedup:     metrics.Speedup(ms[0], m),
			Analysis:    model.Analyze(roofline.PointFromMeasurement(m)),
		})
	}
	out.Baseline = out.Variants[0]
	out.Baseline.Speedup = 1

	// Stage 3: feasibility. The roofline headroom at the baseline's AI is
	// the model's upper bound on achievable speedup (for a fixed
	// algorithm and AI).
	headroom := out.Baseline.Analysis.Headroom
	switch e.Requirement.Kind {
	case SpeedupAtLeast:
		out.Feasible = headroom >= e.Requirement.Target
		out.Feasibility = fmt.Sprintf(
			"roofline headroom at AI %.3g is %.2fx; requirement needs %.2fx",
			out.Baseline.Analysis.Point.AI, headroom, e.Requirement.Target)
	case RuntimeBelow:
		bestPossible := out.Baseline.Measurement.MedianSeconds() / headroom
		out.Feasible = bestPossible <= e.Requirement.Target
		out.Feasibility = fmt.Sprintf(
			"model-optimal runtime is %s; requirement needs %s",
			metrics.FormatSeconds(bestPossible), metrics.FormatSeconds(e.Requirement.Target))
	case FractionOfRoofline:
		out.Feasible = e.Requirement.Target <= 1
		out.Feasibility = fmt.Sprintf("requesting %.0f%% of attainable", e.Requirement.Target*100)
	}

	// Stage 4: approaches.
	out.Advice = append(out.Advice, out.Baseline.Analysis.Advice)
	if out.Baseline.Analysis.Bound == roofline.MemoryBound {
		out.Advice = append(out.Advice,
			"memory-bound: prefer variants improving locality (reordering, tiling) before adding threads")
	} else {
		out.Advice = append(out.Advice,
			"compute-bound: prefer variants adding parallelism and ILP")
	}

	// Stage 6: assess. The best variant is the fastest by median.
	out.Best = out.Baseline
	for _, vr := range out.Variants[1:] {
		if vr.Measurement.MedianSeconds() < out.Best.Measurement.MedianSeconds() {
			out.Best = vr
		}
	}
	out.Satisfied = e.satisfied(out)

	// Stage 6 addendum: is the best-variant win statistically real?
	if out.Best != out.Baseline {
		if cmp, err := metrics.CompareMeasurements(
			out.Baseline.Measurement, out.Best.Measurement, 0.05); err == nil {
			out.Significance = &cmp
		}
	}

	// Stage 7: document.
	out.Report = e.buildReport(out)
	return out, nil
}

func (e *Engagement) satisfied(out *Outcome) bool {
	switch e.Requirement.Kind {
	case SpeedupAtLeast:
		return out.Best.Speedup >= e.Requirement.Target ||
			(out.Best == out.Baseline && e.Requirement.Target <= 1)
	case RuntimeBelow:
		return out.Best.Measurement.MedianSeconds() <= e.Requirement.Target
	case FractionOfRoofline:
		return out.Best.Analysis.Fraction >= e.Requirement.Target
	}
	return false
}

func (e *Engagement) buildReport(out *Outcome) *report.Report {
	r := &report.Report{Title: "Performance engineering report: " + e.App.Name}
	r.AddSection("Stage 1: requirement", out.Requirement.String())
	r.AddSection("Stage 2: baseline", out.Baseline.Measurement.String())
	feas := "INFEASIBLE per model"
	if out.Feasible {
		feas = "feasible per model"
	}
	r.AddSection("Stage 3: feasibility", feas+" — "+out.Feasibility)
	r.AddSection("Stage 4: approach", "- "+strings.Join(out.Advice, "\n- "))

	tab := &report.Table{Title: "Stage 5/6: variants",
		Headers: []string{"variant", "median", "GFLOP/s", "speedup", "% of roof", "bound"}}
	for _, v := range out.Variants {
		tab.AddRow(v.Variant.Name,
			metrics.FormatSeconds(v.Measurement.MedianSeconds()),
			strconv.FormatFloat(v.Measurement.GFLOPS(), 'f', 2, 64),
			strconv.FormatFloat(v.Speedup, 'f', 2, 64)+"x",
			strconv.FormatFloat(v.Analysis.Fraction*100, 'f', 0, 64)+"%",
			v.Analysis.Bound.String())
	}
	r.AddTable(tab)

	verdict := fmt.Sprintf("best variant %q, %.2fx over baseline; requirement %s: ",
		out.Best.Variant.Name, out.Best.Speedup, out.Requirement)
	if out.Satisfied {
		verdict += "MET"
	} else {
		verdict += "NOT MET"
		if !out.Feasible {
			verdict += " (and the model predicted it infeasible at this arithmetic intensity)"
		}
	}
	if out.Significance != nil {
		verdict += "\n" + out.Significance.String()
	}
	r.AddSection("Stage 6: assessment", verdict)
	r.AddSection("Stage 7: model",
		model3Lines(out))
	r.AddSection("Engineering-time profile", out.Profile.Report())
	return r
}

func model3Lines(out *Outcome) string {
	pts := make([]roofline.Point, 0, len(out.Variants))
	for _, v := range out.Variants {
		pts = append(pts, v.Analysis.Point)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Name < pts[j].Name })
	return out.Model.Report(pts) + "\n" + out.Model.ASCIIPlot(pts, 64, 16)
}
