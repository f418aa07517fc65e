package microbench

import (
	"strings"
	"testing"

	"perfeng/internal/machine"
)

func TestStreamKernelMetadata(t *testing.T) {
	if Copy.String() != "copy" || Triad.String() != "triad" {
		t.Fatal("kernel names wrong")
	}
	if Copy.bytesPerElement() != 16 || Add.bytesPerElement() != 24 {
		t.Fatal("traffic counting wrong")
	}
}

func TestRunStreamSmall(t *testing.T) {
	res, err := RunStream(StreamConfig{N: 1 << 14, NTimes: 3, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d, want 4", len(res))
	}
	for _, r := range res {
		if r.BestGBs <= 0 {
			t.Errorf("%s: non-positive bandwidth", r.Kernel)
		}
		if r.BestGBs < r.AvgGBs-1e-9 {
			t.Errorf("%s: best %v below avg %v", r.Kernel, r.BestGBs, r.AvgGBs)
		}
		if r.WorstGBs > r.AvgGBs+1e-9 {
			t.Errorf("%s: worst %v above avg %v", r.Kernel, r.WorstGBs, r.AvgGBs)
		}
		if len(r.String()) == 0 {
			t.Error("empty String")
		}
	}
}

func TestRunStreamParallel(t *testing.T) {
	res, err := RunStream(StreamConfig{N: 1 << 15, NTimes: 3, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Threads != 4 {
		t.Fatal("thread count not recorded")
	}
}

func TestRunStreamDefaultsApplied(t *testing.T) {
	cfg := StreamConfig{N: 1 << 12, NTimes: 0, Threads: 0}
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].NTimes < 2 {
		t.Fatal("NTimes default not applied")
	}
	def := DefaultStreamConfig()
	if def.N <= 0 || def.NTimes != 10 || def.Threads < 1 {
		t.Fatalf("bad defaults: %+v", def)
	}
}

func TestTriadGBs(t *testing.T) {
	v, err := TriadGBs(StreamConfig{N: 1 << 13, NTimes: 3, Threads: 1})
	if err != nil || v <= 0 {
		t.Fatalf("TriadGBs = %v, %v", v, err)
	}
}

func TestRandomCycleIsSingleCycle(t *testing.T) {
	for _, n := range []int{2, 16, 333} {
		ring := randomCycle(n, 7)
		seen := make([]bool, n)
		idx := 0
		for i := 0; i < n; i++ {
			if seen[idx] {
				t.Fatalf("n=%d: revisited %d after %d steps", n, idx, i)
			}
			seen[idx] = true
			idx = ring[idx]
		}
		if idx != 0 {
			t.Fatalf("n=%d: cycle does not close (ends at %d)", n, idx)
		}
	}
}

func TestMeasureLatency(t *testing.T) {
	r := MeasureLatency(32<<10, 1<<14, 3)
	if r.NsPerLoad <= 0 {
		t.Fatalf("latency = %v", r.NsPerLoad)
	}
	if r.WorkingSetBytes != 32<<10 {
		t.Fatalf("working set = %d", r.WorkingSetBytes)
	}
	// Tiny request clamps to 16 elements.
	tiny := MeasureLatency(1, 1<<10, 3)
	if tiny.WorkingSetBytes != 16*8 {
		t.Fatalf("clamp failed: %d", tiny.WorkingSetBytes)
	}
}

func TestLatencyProfileAndBoundaries(t *testing.T) {
	profile := []LatencyResult{
		{16 << 10, 1.2},
		{64 << 10, 1.3},
		{256 << 10, 4.0}, // jump: leaving L1/L2
		{4 << 20, 12.0},  // jump: leaving L3
	}
	edges := DetectCacheBoundaries(profile, 1.5)
	if len(edges) != 2 || edges[0] != 64<<10 || edges[1] != 256<<10 {
		t.Fatalf("edges = %v", edges)
	}
	// jumpFactor <= 1 falls back to 1.5.
	if got := DetectCacheBoundaries(profile, 0); len(got) != 2 {
		t.Fatalf("fallback edges = %v", got)
	}
	real := LatencyProfile([]int{8 << 10, 64 << 10}, 1<<12, 1)
	if len(real) != 2 || real[0].NsPerLoad <= 0 {
		t.Fatalf("profile = %v", real)
	}
}

func TestMeasurePeakFLOPS(t *testing.T) {
	r1 := MeasurePeakFLOPS(1, 1<<18)
	r8 := MeasurePeakFLOPS(8, 1<<18)
	if r1.GFLOPS <= 0 || r8.GFLOPS <= 0 {
		t.Fatalf("rates: %v %v", r1.GFLOPS, r8.GFLOPS)
	}
	// More independent chains must not be slower by a large margin; with a
	// ~4-cycle FP latency the 8-chain version is typically several times
	// faster. Allow generous slack for CI noise.
	if r8.GFLOPS < r1.GFLOPS*1.2 {
		t.Logf("warning: ILP speedup weak (%.2f vs %.2f)", r8.GFLOPS, r1.GFLOPS)
	}
	if MeasurePeakFLOPS(0, 100).Accumulators != 1 {
		t.Fatal("accumulator clamp low failed")
	}
	if MeasurePeakFLOPS(99, 100).Accumulators != 16 {
		t.Fatal("accumulator clamp high failed")
	}
}

func TestMeasurePeakFLOPSParallel(t *testing.T) {
	r := MeasurePeakFLOPSParallel(8, 1<<17, 2)
	if r.GFLOPS <= 0 || r.Threads != 2 || r.Accumulators != 8 {
		t.Fatalf("parallel result = %+v", r)
	}
}

func TestILPSweep(t *testing.T) {
	sweep := ILPSweep(1 << 16)
	if len(sweep) != 4 {
		t.Fatalf("sweep size = %d", len(sweep))
	}
	accs := []int{1, 2, 4, 8}
	for i, r := range sweep {
		if r.Accumulators != accs[i] {
			t.Fatalf("sweep accs wrong: %+v", sweep)
		}
	}
}

func TestCalibrateQuickAndFit(t *testing.T) {
	c, err := Calibrate(CalibrationConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.PeakGFLOPS <= 0 || c.SerialGFLOPS <= 0 {
		t.Fatalf("calibration incomplete: %+v", c)
	}
	if _, ok := c.StreamGBs["triad"]; !ok {
		t.Fatal("triad missing")
	}
	if !strings.Contains(c.String(), "stream triad") {
		t.Fatalf("String() incomplete:\n%s", c)
	}
	fitted := c.FitCPU(machine.GenericLaptop())
	if err := fitted.Validate(); err != nil {
		t.Fatalf("fitted model invalid: %v", err)
	}
	if !strings.Contains(fitted.Name, "calibrated") {
		t.Fatal("fitted name not marked")
	}
	// Fitted model must use the measured bandwidth.
	want := c.StreamGBs["triad"] * 1e9
	if fitted.MemBandwidthBytesPerSec != want {
		t.Fatalf("bandwidth not fitted: %v != %v", fitted.MemBandwidthBytesPerSec, want)
	}
}

func TestFitCPUDegenerateTemplate(t *testing.T) {
	c := &Calibration{
		PeakGFLOPSPerCore: 10,
		SerialGFLOPS:      2,
		StreamGBs:         map[string]float64{"triad": 20},
	}
	fitted := c.FitCPU(machine.CPU{}) // zero template: fallbacks apply
	if fitted.FLOPsPerCyclePerCore <= 0 {
		t.Fatal("fallback frequency not applied")
	}
	if fitted.ScalarFLOPsPerCycle > fitted.FLOPsPerCyclePerCore {
		t.Fatal("scalar clamp failed")
	}
}

func TestMeasureReadBandwidth(t *testing.T) {
	r := MeasureReadBandwidth(64<<10, 4)
	if r.GBs <= 0 {
		t.Fatalf("bandwidth = %v", r.GBs)
	}
	// Tiny request clamps to 1024 elements.
	tiny := MeasureReadBandwidth(1, 1)
	if tiny.WorkingSetBytes != 1024*8 {
		t.Fatalf("clamp failed: %d", tiny.WorkingSetBytes)
	}
}

func TestBandwidthProfile(t *testing.T) {
	// Best of three rounds per size: each round measures both sizes, so
	// a stall on the host lowers one sample of one size, not the verdict.
	var prof []BandwidthResult
	for round := 0; round < 3; round++ {
		r := BandwidthProfile([]int{32 << 10, 8 << 20}, 1<<24)
		if len(r) != 2 {
			t.Fatalf("profile = %v", r)
		}
		for _, p := range r {
			if p.GBs <= 0 {
				t.Fatalf("profile entry %v", p)
			}
		}
		if prof == nil {
			prof = r
			continue
		}
		for i := range r {
			if r[i].GBs > prof[i].GBs {
				prof[i] = r[i]
			}
		}
	}
	// The cache-resident working set should sustain at least the DRAM
	// one (allowing equality under virtualized-timer noise).
	if prof[0].GBs < prof[1].GBs*0.5 {
		t.Fatalf("L1-resident %v much slower than DRAM %v?", prof[0].GBs, prof[1].GBs)
	}
}
