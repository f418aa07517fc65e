package metrics

import (
	"math"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestMeasurementDerivedRates(t *testing.T) {
	m := &Measurement{Name: "k", FLOPs: 2e9, Bytes: 1e9, Procs: 1}
	m.Seconds = []float64{1.0, 1.0, 1.0}
	if got := m.GFLOPS(); got != 2 {
		t.Fatalf("GFLOPS = %v, want 2", got)
	}
	if got := m.GBs(); got != 1 {
		t.Fatalf("GBs = %v, want 1", got)
	}
	if got := m.ArithmeticIntensity(); got != 2 {
		t.Fatalf("AI = %v, want 2", got)
	}
	if m.MedianSeconds() != 1 || m.MinSeconds() != 1 {
		t.Fatal("median/min wrong")
	}
	empty := &Measurement{}
	if empty.GFLOPS() != 0 || empty.GBs() != 0 || empty.ArithmeticIntensity() != 0 {
		t.Fatal("empty measurement must report zero rates")
	}
}

func TestMeasurementAddAndString(t *testing.T) {
	m := &Measurement{Name: "op", FLOPs: 100, Bytes: 10}
	m.Add(2 * time.Millisecond)
	m.Add(3 * time.Millisecond)
	if m.N() != 2 {
		t.Fatalf("N = %d", m.N())
	}
	if s := m.String(); len(s) == 0 {
		t.Fatal("String empty")
	}
	ci := m.MeanCI(0.95)
	if !ci.Contains(ci.Mean) {
		t.Fatal("CI wrong")
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.5, "1.500s"},
		{0.002, "2.000ms"},
		{3e-6, "3.000us"},
		{5e-9, "5.0ns"},
	}
	for _, c := range cases {
		if got := FormatSeconds(c.in); got != c.want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if FormatSeconds(math.NaN()) != "NaN" {
		t.Fatal("NaN formatting wrong")
	}
}

func TestSpeedupEfficiency(t *testing.T) {
	seq := &Measurement{Seconds: []float64{8}, Procs: 1}
	par := &Measurement{Seconds: []float64{2}, Procs: 4}
	if got := Speedup(seq, par); got != 4 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := ParallelEfficiency(seq, par); got != 1 {
		t.Fatalf("Efficiency = %v", got)
	}
	bad := &Measurement{Seconds: []float64{0}, Procs: 0}
	if !math.IsNaN(Speedup(seq, bad)) || !math.IsNaN(ParallelEfficiency(seq, bad)) {
		t.Fatal("degenerate inputs should be NaN")
	}
}

func TestKarpFlatt(t *testing.T) {
	// Perfect speedup -> serial fraction 0.
	if got := KarpFlatt(4, 4); math.Abs(got) > 1e-12 {
		t.Fatalf("KarpFlatt(4,4) = %v, want 0", got)
	}
	// No speedup at all -> serial fraction 1.
	if got := KarpFlatt(1, 8); math.Abs(got-1) > 1e-12 {
		t.Fatalf("KarpFlatt(1,8) = %v, want 1", got)
	}
	if !math.IsNaN(KarpFlatt(2, 1)) {
		t.Fatal("p=1 should be NaN")
	}
}

func TestAmdahlGustafson(t *testing.T) {
	// f=0: both laws give linear speedup.
	if got := AmdahlSpeedup(0, 8); got != 8 {
		t.Fatalf("Amdahl(0,8) = %v", got)
	}
	if got := GustafsonSpeedup(0, 8); got != 8 {
		t.Fatalf("Gustafson(0,8) = %v", got)
	}
	// f=1: no speedup.
	if got := AmdahlSpeedup(1, 64); got != 1 {
		t.Fatalf("Amdahl(1,64) = %v", got)
	}
	if got := GustafsonSpeedup(1, 64); got != 1 {
		t.Fatalf("Gustafson(1,64) = %v", got)
	}
	// Amdahl's asymptote: speedup <= 1/f.
	if got := AmdahlSpeedup(0.1, 1_000_000); got > 10 {
		t.Fatalf("Amdahl asymptote violated: %v", got)
	}
}

// Property: Amdahl <= Gustafson for the same f, p (both equal at f=0, f=1).
func TestQuickAmdahlBelowGustafson(t *testing.T) {
	f := func(fr float64, p uint8) bool {
		frac := math.Mod(math.Abs(fr), 1)
		procs := int(p%64) + 1
		a := AmdahlSpeedup(frac, procs)
		g := GustafsonSpeedup(frac, procs)
		return a <= g+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerCollects(t *testing.T) {
	r := NewRunner(QuickConfig())
	count := 0
	m := r.Measure("busy", 1, 1, func() { count++ })
	if m.N() < 3 {
		t.Fatalf("want >=3 samples, got %d", m.N())
	}
	if count < m.N() {
		t.Fatal("function under-executed")
	}
}

func TestRunnerAdaptiveStop(t *testing.T) {
	cfg := RunnerConfig{Warmup: 0, MinRuns: 5, MaxRuns: 100, TargetRelCI: 0.5}
	r := NewRunner(cfg)
	m := r.Measure("steady", 0, 0, func() { time.Sleep(100 * time.Microsecond) })
	// A steady operation should stop well before MaxRuns.
	if m.N() > 50 {
		t.Fatalf("adaptive stop failed: %d runs", m.N())
	}
}

func TestRunnerBatchesShortOps(t *testing.T) {
	cfg := RunnerConfig{Warmup: 0, MinRuns: 3, MaxRuns: 3,
		MinSampleTime: 200 * time.Microsecond}
	r := NewRunner(cfg)
	m := r.Measure("tiny", 0, 0, func() {})
	// Per-sample time should be far below MinSampleTime because the batch
	// divisor is applied.
	if m.MedianSeconds() > 100e-6 {
		t.Fatalf("batching not applied: median %v", m.MedianSeconds())
	}
}

func TestRunnerDefaults(t *testing.T) {
	r := NewRunner(RunnerConfig{})
	if r.cfg.MinRuns <= 0 || r.cfg.MaxRuns < r.cfg.MinRuns {
		t.Fatalf("defaults not applied: %+v", r.cfg)
	}
}

func TestMeasureAllRoundRobin(t *testing.T) {
	var calls []int
	ops := make([]Op, 3)
	for i := range ops {
		ops[i] = Op{Name: strconv.Itoa(i), Run: func() { calls = append(calls, i) }}
	}
	ms := NewRunner(RunnerConfig{Warmup: 2, MinRuns: 4, MaxRuns: 4}).MeasureAll(ops)
	// Each op's warm-up, then four rounds of one sample of every op.
	want := []int{0, 0, 1, 1, 2, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	if !slices.Equal(calls, want) {
		t.Fatalf("call order %v, want %v", calls, want)
	}
	for i, m := range ms {
		if m.Name != ops[i].Name || m.N() != 4 {
			t.Fatalf("op %d: %s with %d samples", i, m.Name, m.N())
		}
	}
}

func TestMeasureAllStopsWhenEveryOpConverges(t *testing.T) {
	// The steady op alone would stop at MinRuns; the one that alternates
	// between 0 and 2 ms never meets a 5% CI, so both run to MaxRuns.
	flip := false
	ms := NewRunner(RunnerConfig{MinRuns: 3, MaxRuns: 8, TargetRelCI: 0.05}).MeasureAll([]Op{
		{Name: "steady", Run: func() { time.Sleep(100 * time.Microsecond) }},
		{Name: "noisy", Run: func() {
			if flip = !flip; flip {
				time.Sleep(2 * time.Millisecond)
			}
		}},
	})
	if ms[0].N() != 8 || ms[1].N() != 8 {
		t.Fatalf("samples %d and %d, want 8 each", ms[0].N(), ms[1].N())
	}
}

func TestDesignPoints(t *testing.T) {
	d := Design{Factors: []Factor{
		{Name: "n", Levels: []float64{1, 2}},
		{Name: "t", Levels: []float64{10, 20, 30}},
	}}
	if d.Size() != 6 {
		t.Fatalf("Size = %d", d.Size())
	}
	pts := d.Points()
	if len(pts) != 6 {
		t.Fatalf("Points = %d", len(pts))
	}
	// First factor varies slowest.
	if pts[0]["n"] != 1 || pts[0]["t"] != 10 {
		t.Fatalf("first point wrong: %v", pts[0])
	}
	if pts[5]["n"] != 2 || pts[5]["t"] != 30 {
		t.Fatalf("last point wrong: %v", pts[5])
	}
	if (Design{}).Points() != nil {
		t.Fatal("empty design should yield nil")
	}
	empty := Design{Factors: []Factor{{Name: "x"}}}
	if empty.Points() != nil {
		t.Fatal("factor without levels should yield nil")
	}
}

func TestPointKeyStable(t *testing.T) {
	p := Point{"b": 2, "a": 1}
	if p.Key() != "a=1 b=2" {
		t.Fatalf("Key = %q", p.Key())
	}
}

func TestSweep(t *testing.T) {
	d := Design{Factors: []Factor{{Name: "n", Levels: []float64{1, 2, 3}}}}
	res, order := d.Sweep(func(p Point) *Measurement {
		return &Measurement{Name: p.Key(), Seconds: []float64{p["n"]}}
	})
	if len(res) != 3 || len(order) != 3 {
		t.Fatalf("sweep sizes wrong: %d %d", len(res), len(order))
	}
	if res["n=2"].MedianSeconds() != 2 {
		t.Fatal("sweep result wrong")
	}
}

func TestPowersOfTwoLinspace(t *testing.T) {
	p := PowersOfTwo(3, 5)
	if len(p) != 3 || p[0] != 8 || p[2] != 32 {
		t.Fatalf("PowersOfTwo = %v", p)
	}
	if PowersOfTwo(5, 3) != nil {
		t.Fatal("inverted range should be nil")
	}
	l := Linspace(0, 10, 5)
	if len(l) != 5 || l[0] != 0 || l[4] != 10 || l[2] != 5 {
		t.Fatalf("Linspace = %v", l)
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Linspace n=1 = %v", got)
	}
	if Linspace(0, 1, 0) != nil {
		t.Fatal("n=0 should be nil")
	}
}

// Property: design size equals the product of level counts and Points
// enumerates exactly that many distinct keys.
func TestQuickDesignEnumeration(t *testing.T) {
	f := func(a, b, c uint8) bool {
		la, lb, lc := int(a%4)+1, int(b%4)+1, int(c%4)+1
		d := Design{Factors: []Factor{
			{Name: "a", Levels: Linspace(0, 1, la)},
			{Name: "b", Levels: Linspace(0, 1, lb)},
			{Name: "c", Levels: Linspace(0, 1, lc)},
		}}
		pts := d.Points()
		if len(pts) != la*lb*lc {
			return false
		}
		seen := make(map[string]bool, len(pts))
		for _, p := range pts {
			seen[p.Key()] = true
		}
		return len(seen) == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
