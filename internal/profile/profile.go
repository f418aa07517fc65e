// Package profile implements a lightweight instrumentation profiler in the
// Score-P style: code is annotated with named regions (enter/exit), the
// profiler accumulates per-region call counts and inclusive/exclusive time
// along the region stack, and the report is the classic flat profile
// students first meet in gprof/perf ("Use different performance
// engineering tools (e.g., profilers...)" — learning objective 8).
//
// The profiler is deliberately single-goroutine per Profiler instance
// (regions nest on one stack, as in Score-P's per-thread region stacks);
// concurrent code profiles each worker with its own Profiler and merges.
package profile

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"perfeng/internal/probe"
)

// Region accumulates the statistics of one named region.
type Region struct {
	Name      string
	Calls     int
	Inclusive time.Duration // time between enter and exit
	Exclusive time.Duration // inclusive minus time in nested regions
}

type frame struct {
	name    string
	start   time.Time
	inChild time.Duration
}

// Span is one region exit as a timestamped interval: Path is the full
// region stack (outermost first, the exiting region last), Start and
// End bound the interval. Spans let a timeline consumer (the obs
// tracing layer, the flight recorder) mirror the profiler's regions
// without the profiler depending on it.
type Span struct {
	Path       []string
	Start, End time.Time
}

// Profiler collects region statistics on one goroutine.
type Profiler struct {
	regions map[string]*Region
	stack   []frame
	now     func() time.Time // injectable clock for tests
	// Spans receives one Span per Exit while any sink is attached. The
	// Path slice is fresh per span, so a sink may keep it.
	Spans probe.Hook[Span]
}

// New creates an empty profiler.
func New() *Profiler {
	return &Profiler{regions: make(map[string]*Region), now: time.Now}
}

// Enter pushes a region onto the stack.
func (p *Profiler) Enter(name string) {
	p.stack = append(p.stack, frame{name: name, start: p.now()})
}

// Exit pops the current region. It returns an error when the stack is
// empty or the name does not match the current region (unbalanced
// instrumentation — the classic user error Score-P also diagnoses).
func (p *Profiler) Exit(name string) error {
	if len(p.stack) == 0 {
		return errors.New("profile: exit with empty region stack")
	}
	top := p.stack[len(p.stack)-1]
	if top.name != name {
		return fmt.Errorf("profile: exit %q does not match current region %q", name, top.name)
	}
	p.stack = p.stack[:len(p.stack)-1]
	end := p.now()
	elapsed := end.Sub(top.start)
	if p.Spans.Active() {
		path := make([]string, 0, len(p.stack)+1)
		for _, f := range p.stack {
			path = append(path, f.name)
		}
		p.Spans.Emit(Span{Path: append(path, name), Start: top.start, End: end})
	}

	r, ok := p.regions[name]
	if !ok {
		r = &Region{Name: name}
		p.regions[name] = r
	}
	r.Calls++
	r.Inclusive += elapsed
	r.Exclusive += elapsed - top.inChild
	// Charge this region's time to the parent's child bucket.
	if len(p.stack) > 0 {
		p.stack[len(p.stack)-1].inChild += elapsed
	}
	return nil
}

// Do profiles one function call as a region.
func (p *Profiler) Do(name string, f func()) error {
	p.Enter(name)
	f()
	return p.Exit(name)
}

// Depth returns the current region-stack depth.
func (p *Profiler) Depth() int { return len(p.stack) }

// Regions returns the accumulated regions sorted by exclusive time,
// largest first.
func (p *Profiler) Regions() []Region {
	out := make([]Region, 0, len(p.regions))
	for _, r := range p.regions {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Exclusive != out[j].Exclusive {
			return out[i].Exclusive > out[j].Exclusive
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TotalExclusive returns the sum of exclusive times (the profiled wall
// clock, up to instrumentation overhead).
func (p *Profiler) TotalExclusive() time.Duration {
	var t time.Duration
	for _, r := range p.regions {
		t += r.Exclusive
	}
	return t
}

// Merge adds other's statistics into p (for per-worker profiles).
func (p *Profiler) Merge(other *Profiler) error {
	if other.Depth() != 0 {
		return errors.New("profile: cannot merge a profiler with open regions")
	}
	for name, r := range other.regions {
		dst, ok := p.regions[name]
		if !ok {
			dst = &Region{Name: name}
			p.regions[name] = dst
		}
		dst.Calls += r.Calls
		dst.Inclusive += r.Inclusive
		dst.Exclusive += r.Exclusive
	}
	return nil
}

// Report renders the flat profile: regions by exclusive time with their
// share of the total.
func (p *Profiler) Report() string {
	regions := p.Regions()
	total := p.TotalExclusive()
	var sb strings.Builder
	sb.WriteString("flat profile (by exclusive time):\n")
	sb.WriteString("  excl%   exclusive    inclusive    calls  region\n")
	for _, r := range regions {
		pct := 0.0
		if total > 0 {
			pct = float64(r.Exclusive) / float64(total) * 100
		}
		fmt.Fprintf(&sb, "  %5.1f%%  %-11s  %-11s  %5d  %s\n",
			pct, r.Exclusive.Round(time.Microsecond),
			r.Inclusive.Round(time.Microsecond), r.Calls, r.Name)
	}
	return sb.String()
}
