package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"perfeng"
	"perfeng/internal/kernels"
	"perfeng/internal/sched"
	"perfeng/internal/serviced"
	"perfeng/internal/tune"
)

// checkKernels checks, once per shape, the variant the daemon serves
// (the application's last candidate, as cmd/perfeng's resolver picks
// it) against the baseline variant's answer. The inputs are built the
// way perfeng.BuiltinApplication builds them.
func checkKernels(rep *report, shapes []shape) error {
	for _, sh := range shapes {
		diff, tol, err := servedVsBaseline(sh)
		if err != nil {
			return err
		}
		rep.check(diff <= tol, "%s: served variant differs from the baseline by %g (tolerance %g)", sh, diff, tol)
	}
	return nil
}

// servedVsBaseline runs both variants of one shape and returns their
// largest difference and the tolerance it must stay within.
func servedVsBaseline(sh shape) (diff, tol float64, err error) {
	n, w := sh.N, sh.Workers
	switch sh.Kernel {
	case "matmul":
		a, b := kernels.RandomDense(n, 1), kernels.RandomDense(n, 2)
		want, got := kernels.NewDense(n), kernels.NewDense(n)
		kernels.MatMulNaive(a, b, want)
		kernels.MatMulParallelTiled(a, b, got, w, 64)
		return maxDiff(want.Data, got.Data), 1e-9 * float64(n), nil
	case "histogram":
		samples := kernels.UniformSamples(n, 7)
		want, got := make([]int64, 256), make([]int64, 256)
		kernels.HistogramSeq(samples, want)
		kernels.HistogramPrivate(samples, got, w)
		for i := range want {
			diff = math.Max(diff, math.Abs(float64(want[i]-got[i])))
		}
		return diff, 0, nil
	case "spmv":
		coo := kernels.RandomSparse(n, n, 8*n, 5)
		x := kernels.UniformSamples(n, 9)
		want, got := make([]float64, n), make([]float64, n)
		kernels.SpMVCOO(coo, x, want)
		kernels.SpMVCSRParallel(coo.ToCSR(), x, got, w)
		return maxDiff(want, got), 1e-9, nil
	case "stencil":
		g := kernels.HotBoundaryGrid(n)
		return kernels.StencilResidual(kernels.StencilRun(g, 8, 1), kernels.StencilRun(g, 8, w)), 1e-12, nil
	case "gameoflife":
		want := kernels.RandomLife(n, n, 0.3, 11).Run(8, 1)
		got := kernels.RandomLife(n, n, 0.3, 11).Run(8, w)
		if !want.Equal(got) {
			return 1, 0, nil
		}
		return 0, 0, nil
	case "fft":
		size := 1
		for size < n {
			size <<= 1
		}
		x := kernels.RandomComplex(size, 3)
		got := append([]complex128(nil), x...)
		if err := kernels.FFT(got); err != nil {
			return 0, 0, err
		}
		return kernels.MaxComplexDiff(kernels.DFT(x), got), 1e-9 * float64(size), nil
	case "pagerank":
		g := kernels.RandomGraph(n, 16*n, 17)
		return maxDiff(kernels.PageRank(g, 0.85, 5), kernels.PageRankParallel(g, 0.85, 5, w)), 1e-12, nil
	}
	return 0, 0, fmt.Errorf("no output check for kernel %q", sh.Kernel)
}

func maxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// kernelCost is one shape's computed work and its served variant's time
// when called directly, outside the daemon.
type kernelCost struct {
	flops, bytes float64
	directMS     float64
}

// directKernel builds sh's application and times its served variant.
func directKernel(sh shape) (kernelCost, error) {
	app, err := perfeng.BuiltinApplication(sh.Kernel, sh.N, sh.Workers)
	if err != nil {
		return kernelCost{}, err
	}
	v := app.Baseline
	if len(app.Candidates) > 0 {
		v = app.Candidates[len(app.Candidates)-1]
	}
	v.Run() // first call pays page faults
	var xs []float64
	for start := time.Now(); len(xs) < 5 || (len(xs) < 200 && time.Since(start) < 200*time.Millisecond); {
		t0 := time.Now()
		v.Run()
		xs = append(xs, ms(time.Since(t0)))
	}
	return kernelCost{flops: app.FLOPs, bytes: app.Bytes, directMS: median(xs)}, nil
}

// setKernelLayer reports per-kernel metrics: computed FLOPs and bytes of
// one execution, the direct-call time, and (when measured) the served
// per-repetition p50 with the GFLOP/s it implies.
func setKernelLayer(rep *report, sh shape, cost kernelCost, repMS float64) {
	p := "kernels." + sh.Kernel + "."
	rep.set(p+"flops", "count", cost.flops)
	rep.set(p+"bytes_computed", "B", cost.bytes)
	rep.set(p+"direct_ms", "ms", cost.directMS)
	rep.set(p+"rep_ms.p50", "ms", repMS)
	rep.set(p+"gflops", "GFLOP/s", ratio(cost.flops/1e9, repMS/1e3))
	fmt.Printf("consistency: %-28s direct %.4f ms vs served rep p50 %.4f ms\n", sh, cost.directMS, repMS)
}

// unitCosts holds the direct-call probes, in ns per call.
type unitCosts struct {
	admit, sseEncode, tuneLookup, parallelFor float64
}

// probeUnitCosts times direct calls into each layer's hot path.
func probeUnitCosts(rep *report) unitCosts {
	var u unitCosts

	adm, err := serviced.NewAdmission(serviced.AdmissionConfig{Servers: runtime.NumCPU(),
		TargetP99: 2 * time.Second, InitialMeanService: 5 * time.Millisecond})
	if err == nil {
		names := make([]string, tenants)
		for i := range names {
			names[i] = fmt.Sprintf("t%d", i)
		}
		// A synthetic clock 20 ms per call keeps every bucket stocked, so
		// each call takes the admit path.
		now := time.Now()
		i := 0
		u.admit = nsPerCall(func() {
			now = now.Add(20 * time.Millisecond)
			if d := adm.Admit(names[i%tenants], now); d.OK {
				adm.Done(time.Millisecond)
			}
			i++
		})
	}

	progress := serviced.Event{V: serviced.SchemaVersion, Kind: serviced.KindProgress, Job: "j123456",
		Tenant: "t3", Seq: 4, Rep: &serviced.RepInfo{Rep: 2, Reps: 8, NS: 123456}}
	result := serviced.Event{V: serviced.SchemaVersion, Kind: serviced.KindResult, Job: "j123456",
		Tenant: "t3", Seq: 11, Result: &serviced.ResultInfo{Kernel: "histogram", Reps: 8, WaitNS: 5123,
			MeanNS: 23456, P50NS: 22345, P95NS: 30123, P99NS: 31234, TotalNS: 187654}}
	buf := make([]byte, 0, 512)
	k := 0
	u.sseEncode = nsPerCall(func() {
		if k%2 == 0 {
			buf = serviced.AppendSSE(buf[:0], &progress)
		} else {
			buf = serviced.AppendSSE(buf[:0], &result)
		}
		k++
	})

	tune.ActivateOne("matmul", 256, tune.Config{Policy: "static"})
	u.tuneLookup = nsPerCall(func() { _, _ = tune.Lookup("matmul", 256) })
	tune.Activate(nil)

	body := func(lo, hi int) {}
	u.parallelFor = nsPerCall(func() { sched.ParallelForPolicy(sched.PolicyStatic, 2, 1, body) })

	rep.set("serviced.admit_ns", "ns", u.admit)
	rep.set("serviced.sse_encode_ns", "ns", u.sseEncode)
	rep.set("tune.lookup_ns", "ns", u.tuneLookup)
	rep.set("sched.parallel_for_ns", "ns", u.parallelFor)
	return u
}

// nsPerCall is the median over 5 batches of f's mean time, each batch
// running about 20 ms.
func nsPerCall(f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) > 2*time.Millisecond {
			break
		}
		n *= 2
	}
	n *= 10
	var xs []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		xs = append(xs, float64(time.Since(t0))/float64(n))
	}
	return median(xs)
}
