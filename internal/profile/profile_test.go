package profile

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances by a fixed step on every call, making the arithmetic
// exact.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func newFake(step time.Duration) *Profiler {
	p := New()
	c := &fakeClock{t: time.Unix(0, 0), step: step}
	p.now = c.now
	return p
}

func TestFlatRegions(t *testing.T) {
	p := newFake(time.Millisecond)
	// Each now() call advances 1ms: enter(+1ms) ... exit(+1ms) => each
	// region spans exactly 1ms.
	p.Enter("a")
	if err := p.Exit("a"); err != nil {
		t.Fatal(err)
	}
	p.Enter("a")
	if err := p.Exit("a"); err != nil {
		t.Fatal(err)
	}
	rs := p.Regions()
	if len(rs) != 1 || rs[0].Calls != 2 {
		t.Fatalf("regions = %+v", rs)
	}
	if rs[0].Inclusive != 2*time.Millisecond || rs[0].Exclusive != 2*time.Millisecond {
		t.Fatalf("times = %+v", rs[0])
	}
}

func TestNestedExclusiveTime(t *testing.T) {
	p := newFake(time.Millisecond)
	// Timeline (1ms per tick): enter outer (t=1), enter inner (t=2),
	// exit inner (t=3, inner incl=1ms), exit outer (t=4, outer incl=3ms,
	// excl=3-1=2ms).
	p.Enter("outer")
	p.Enter("inner")
	if err := p.Exit("inner"); err != nil {
		t.Fatal(err)
	}
	if err := p.Exit("outer"); err != nil {
		t.Fatal(err)
	}
	byName := map[string]Region{}
	for _, r := range p.Regions() {
		byName[r.Name] = r
	}
	if byName["inner"].Inclusive != time.Millisecond {
		t.Fatalf("inner = %+v", byName["inner"])
	}
	if byName["outer"].Inclusive != 3*time.Millisecond {
		t.Fatalf("outer inclusive = %v", byName["outer"].Inclusive)
	}
	if byName["outer"].Exclusive != 2*time.Millisecond {
		t.Fatalf("outer exclusive = %v", byName["outer"].Exclusive)
	}
}

func TestUnbalancedInstrumentation(t *testing.T) {
	p := New()
	if err := p.Exit("ghost"); err == nil {
		t.Fatal("exit on empty stack must fail")
	}
	p.Enter("a")
	if err := p.Exit("b"); err == nil {
		t.Fatal("mismatched exit must fail")
	}
	if p.Depth() != 1 {
		t.Fatalf("depth = %d after failed exit", p.Depth())
	}
	if err := p.Exit("a"); err != nil {
		t.Fatal(err)
	}
}

func TestDo(t *testing.T) {
	p := New()
	ran := false
	if err := p.Do("work", func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran || p.Depth() != 0 {
		t.Fatal("Do did not run or left the stack dirty")
	}
	if p.Regions()[0].Calls != 1 {
		t.Fatal("region not recorded")
	}
}

func TestMerge(t *testing.T) {
	a := newFake(time.Millisecond)
	a.Enter("x")
	_ = a.Exit("x")
	b := newFake(time.Millisecond)
	b.Enter("x")
	_ = b.Exit("x")
	b.Enter("y")
	_ = b.Exit("y")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	byName := map[string]Region{}
	for _, r := range a.Regions() {
		byName[r.Name] = r
	}
	if byName["x"].Calls != 2 || byName["y"].Calls != 1 {
		t.Fatalf("merged = %+v", byName)
	}
	open := New()
	open.Enter("pending")
	if err := a.Merge(open); err == nil {
		t.Fatal("merging an open profiler must fail")
	}
}

func TestReportOrdering(t *testing.T) {
	p := newFake(time.Millisecond)
	// "hot" called 3 times (3ms exclusive), "cold" once (1ms).
	for i := 0; i < 3; i++ {
		p.Enter("hot")
		_ = p.Exit("hot")
	}
	p.Enter("cold")
	_ = p.Exit("cold")
	rs := p.Regions()
	if rs[0].Name != "hot" {
		t.Fatalf("hottest region should lead: %+v", rs)
	}
	rep := p.Report()
	if !strings.Contains(rep, "hot") || !strings.Contains(rep, "excl%") {
		t.Fatalf("report incomplete:\n%s", rep)
	}
	if strings.Index(rep, "hot") > strings.Index(rep, "cold") {
		t.Fatal("report not sorted by exclusive time")
	}
	if p.TotalExclusive() != 4*time.Millisecond {
		t.Fatalf("total = %v", p.TotalExclusive())
	}
}

func TestRealClockSmoke(t *testing.T) {
	p := New()
	if err := p.Do("sleep", func() { time.Sleep(2 * time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
	if p.Regions()[0].Inclusive < time.Millisecond {
		t.Fatal("real clock did not accumulate")
	}
}

// TestMergeConcurrentWorkers exercises the documented concurrent-workers
// pattern: each worker goroutine profiles with its own Profiler, and the
// per-worker profiles merge into one report afterwards.
func TestMergeConcurrentWorkers(t *testing.T) {
	const workers = 4
	profs := make([]*Profiler, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := New()
			// Every worker runs the shared phase twice and its own
			// phase once, with nesting.
			for i := 0; i < 2; i++ {
				p.Enter("work")
				p.Enter("inner")
				time.Sleep(time.Millisecond)
				if err := p.Exit("inner"); err != nil {
					t.Error(err)
				}
				if err := p.Exit("work"); err != nil {
					t.Error(err)
				}
			}
			if err := p.Do(fmt.Sprintf("setup-%d", w), func() {}); err != nil {
				t.Error(err)
			}
			profs[w] = p
		}(w)
	}
	wg.Wait()

	total := New()
	for _, p := range profs {
		if err := total.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	regions := make(map[string]Region)
	for _, r := range total.Regions() {
		regions[r.Name] = r
	}
	// workers x 2 calls of the shared regions, one setup region each.
	if got := regions["work"].Calls; got != workers*2 {
		t.Fatalf("work calls = %d, want %d", got, workers*2)
	}
	if got := regions["inner"].Calls; got != workers*2 {
		t.Fatalf("inner calls = %d, want %d", got, workers*2)
	}
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("setup-%d", w)
		if got := regions[name].Calls; got != 1 {
			t.Fatalf("%s calls = %d, want 1", name, got)
		}
	}
	// Inclusive time aggregates across workers and stays >= the nested
	// child's share; exclusive excludes it.
	if regions["work"].Inclusive < regions["inner"].Inclusive {
		t.Fatal("merged inclusive time lost nesting")
	}
	if regions["work"].Exclusive > regions["work"].Inclusive {
		t.Fatal("exclusive exceeds inclusive after merge")
	}
	// The merged report renders every region.
	rep := total.Report()
	for name := range regions {
		if !strings.Contains(rep, name) {
			t.Fatalf("merged report missing %q:\n%s", name, rep)
		}
	}
}

// TestMergeDeterministic pins the merge arithmetic with fake clocks.
func TestMergeDeterministic(t *testing.T) {
	a := newFake(time.Millisecond)
	b := newFake(time.Millisecond)
	for _, p := range []*Profiler{a, b} {
		p.Enter("outer")
		p.Enter("inner")
		_ = p.Exit("inner") // inner: 1ms inclusive
		_ = p.Exit("outer") // outer: 3ms inclusive, 2ms exclusive
	}
	total := New()
	if err := total.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := total.Merge(b); err != nil {
		t.Fatal(err)
	}
	regions := make(map[string]Region)
	for _, r := range total.Regions() {
		regions[r.Name] = r
	}
	if got := regions["outer"]; got.Inclusive != 6*time.Millisecond ||
		got.Exclusive != 4*time.Millisecond || got.Calls != 2 {
		t.Fatalf("outer = %+v", got)
	}
	if got := regions["inner"]; got.Inclusive != 2*time.Millisecond ||
		got.Exclusive != 2*time.Millisecond || got.Calls != 2 {
		t.Fatalf("inner = %+v", got)
	}
}

// TestSpanListener verifies the observability hook: every Exit reports
// the full region stack and interval, and detaching stops the stream.
func TestSpanListener(t *testing.T) {
	p := newFake(time.Millisecond)
	var got []Span
	detach := p.Spans.Attach(func(sp Span) { got = append(got, sp) })
	p.Enter("outer")
	p.Enter("inner")
	_ = p.Exit("inner")
	_ = p.Exit("outer")
	if len(got) != 2 {
		t.Fatalf("span events = %d, want 2", len(got))
	}
	if strings.Join(got[0].Path, "/") != "outer/inner" {
		t.Fatalf("inner path = %v", got[0].Path)
	}
	if strings.Join(got[1].Path, "/") != "outer" {
		t.Fatalf("outer path = %v", got[1].Path)
	}
	if d := got[0].End.Sub(got[0].Start); d != time.Millisecond {
		t.Fatalf("inner interval = %v", d)
	}
	detach()
	p.Enter("quiet")
	_ = p.Exit("quiet")
	if len(got) != 2 {
		t.Fatal("detached sink still called")
	}
}
