package perfeng

// The benchmark harness: one bench per paper artifact and per experiment
// of the DESIGN.md index (E1-E13). Run with
//
//	go test -bench=. -benchmem
//
// Paper artifacts (E1-E6) are generation benches: they regenerate Figure 1,
// Table 1, Table 2a/2b, the grade equations, and Figure 2 from the
// embedded data, and verify invariants inline. Kernel experiments (E7-E13)
// are measurement benches: the *relative* numbers across sub-benchmarks
// reproduce the shapes the course teaches (who wins and roughly by how
// much); see EXPERIMENTS.md for the recorded results.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"perfeng/internal/analytic"
	"perfeng/internal/cluster"
	"perfeng/internal/course"
	"perfeng/internal/critpath"
	"perfeng/internal/flight"
	"perfeng/internal/gpu"
	"perfeng/internal/isa"
	"perfeng/internal/kernels"
	"perfeng/internal/machine"
	"perfeng/internal/obs"
	"perfeng/internal/patterns"
	"perfeng/internal/polyhedral"
	"perfeng/internal/queuing"
	"perfeng/internal/roofline"
	"perfeng/internal/sched"
	"perfeng/internal/serviced"
	"perfeng/internal/simulator"
	"perfeng/internal/simulator/ports"
	"perfeng/internal/statmodel"
	"perfeng/internal/telemetry"
	"perfeng/internal/tune"
)

// sink defeats dead-code elimination across benches.
var sink interface{}

// init arms the process-wide flight recorder when PERFENG_FLIGHT=1 —
// the enabled-vs-disabled overhead experiment of EXPERIMENTS.md: run
// BenchmarkSmoke twice, once per state, and Welch-t the pairs. The
// sched sink is attached too, for the process's lifetime, so every
// parallel bench records through the black box exactly as
// `perfeng serve` would.
func init() {
	if os.Getenv("PERFENG_FLIGHT") == "1" {
		rec := flight.NewRecorder(0)
		flight.Enable(rec)
		sched.Default().Tasks.Attach(flight.SchedSink(rec))
	}
}

// ---- Smoke subset: the CI benchmark gate ----

// BenchmarkSmoke is the curated gate subset: one fast, deterministic,
// single-goroutine representative per experiment family (E1 artifacts, E7
// matmul, E9 SpMV, E10 counters/simulator, E12 queuing, E13 polyhedral,
// plus FFT and stencil from the project kernels). internal/benchgate
// records this subset as BENCH_<n>.json (`perfeng benchgate record`) and
// CI's bench-gate job compares fresh runs against the committed baseline
// with Welch's t-test. Parallel and goroutine-heavy benches are excluded
// on purpose — their variance on shared CI runners drowns the signal the
// gate is looking for. The two sched entries are the deliberate
// exception: every parallel kernel now rides on the shared runtime, so
// its dispatch overhead and steal path are gated with small fixed shapes
// that keep the variance bounded.
func BenchmarkSmoke(b *testing.B) {
	b.Run("figure1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = course.Figure1(64, 16)
		}
	})
	// n=144, not 128: a power-of-2 leading dimension gives every row the
	// same cache-set alignment, so the bench flips between performance
	// states with the physical page layout — exactly the conflict-miss
	// pathology the course teaches, and poison for a regression gate.
	n := 144
	a := kernels.RandomDense(n, 1)
	bb := kernels.RandomDense(n, 2)
	c := kernels.NewDense(n)
	b.Run("matmul-ikj/n=144", func(b *testing.B) {
		b.SetBytes(int64(kernels.MatMulCompulsoryBytes(n)))
		for i := 0; i < b.N; i++ {
			kernels.MatMulIKJ(a, bb, c)
		}
	})
	sn := 4000
	csr := kernels.RandomSparse(sn, sn, 8*sn, 5).ToCSR()
	x := kernels.UniformSamples(sn, 9)
	y := make([]float64, sn)
	b.Run("spmv-csr/n=4000", func(b *testing.B) {
		b.SetBytes(int64(kernels.SpMVCSRBytes(sn, csr.NNZ())))
		for i := 0; i < b.N; i++ {
			kernels.SpMVCSR(csr, x, y)
		}
	})
	samples := kernels.UniformSamples(1<<18, 7)
	counts := make([]int64, 256)
	b.Run("histogram-seq", func(b *testing.B) {
		b.SetBytes(int64(kernels.HistogramBytes(1<<18, 256)))
		for i := 0; i < b.N; i++ {
			kernels.HistogramSeq(samples, counts)
		}
	})
	b.Run("cache-sim-triad", func(b *testing.B) {
		// Build the hierarchy once and Reset between iterations: the op
		// under test is the access path, and per-iteration construction
		// (the DAS5 L3 alone is ~400k line slots) would make this a GC
		// benchmark with the cross-run variance GC brings.
		h, err := simulator.FromCPU(machine.DAS5CPU())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Reset()
			simulator.TraceStreamTriad(h, 1<<12)
		}
		sink = h
	})
	// The queuing representative is the discrete-event simulator, not the
	// sub-microsecond MVA sweep: ops that small are dominated by
	// per-process layout effects (ASLR, allocator state) and flip between
	// stable performance states across runs, which no statistics on one
	// run can absorb.
	b.Run("queuing-desim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := queuing.Simulate(queuing.Exponential(2), queuing.Exponential(3),
				1, 2000, 200, 42)
			if err != nil {
				b.Fatal(err)
			}
			sink = r.MeanW
		}
	})
	b.Run("polyhedral-deps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			deps, err := polyhedral.Dependences(polyhedral.MatMulNest(32))
			if err != nil {
				b.Fatal(err)
			}
			sink = deps
		}
	})
	fx := kernels.RandomComplex(1024, 3)
	fbuf := make([]complex128, 1024)
	b.Run("fft/n=1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(fbuf, fx)
			if err := kernels.FFT(fbuf); err != nil {
				b.Fatal(err)
			}
		}
	})
	g := kernels.HotBoundaryGrid(128)
	b.Run("stencil-seq/n=128", func(b *testing.B) {
		b.SetBytes(int64(kernels.StencilBytes(128)))
		for i := 0; i < b.N; i++ {
			sink = kernels.StencilRun(g, 2, 1)
		}
	})
	// Telemetry hot path: the per-event cost every instrumented producer
	// pays while live monitoring is on. Gated so the registry's
	// allocation-free fast path cannot regress silently; the
	// AllocsPerRun check turns any allocation into a hard failure
	// rather than a timing drift the t-test might absorb.
	treg := telemetry.NewRegistry()
	tc := treg.Counter("perfeng_bench_ops", "gate bench counter")
	th := treg.Histogram("perfeng_bench_latency_seconds", "gate bench histogram", -30, 4)
	b.Run("telemetry-counter-inc", func(b *testing.B) {
		if a := testing.AllocsPerRun(1000, tc.Inc); a != 0 {
			b.Fatalf("counter inc allocates: %v allocs/op", a)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.Inc()
		}
	})
	b.Run("telemetry-histogram-observe", func(b *testing.B) {
		if a := testing.AllocsPerRun(1000, func() { th.Observe(1.25e-6) }); a != 0 {
			b.Fatalf("histogram observe allocates: %v allocs/op", a)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			th.Observe(1.25e-6)
		}
	})
	// Flight-recorder hot path: the per-event cost of the always-on
	// black box — one stripe lock and a struct copy. Gated at exactly
	// zero allocations, like the telemetry entries: the ring's buffers
	// are preallocated, so any alloc here is a contract break, not a
	// tuning matter.
	frec := flight.NewRecorder(0)
	b.Run("flight-record", func(b *testing.B) {
		rec := flight.Record{Kind: flight.KindSpan, Track: "bench", Name: "op",
			Start: time.Microsecond, Dur: time.Microsecond}
		if a := testing.AllocsPerRun(1000, func() { frec.Record(rec) }); a != 0 {
			b.Fatalf("flight record allocates: %v allocs/op", a)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frec.Record(rec)
		}
	})
	// SLO exemplar path: ObserveExemplar in steady state (the observed
	// value is not a new maximum) must cost one atomic load and a
	// compare over plain Observe, and never allocate.
	b.Run("slo-observe-exemplar", func(b *testing.B) {
		ex := telemetry.Exemplar{Value: 1.25e-6, Track: "bench", Name: "op",
			Start: time.Microsecond, Dur: time.Microsecond}
		th.ObserveExemplar(1.0, telemetry.Exemplar{Value: 1.0}) // pin the retained max
		if a := testing.AllocsPerRun(1000, func() { th.ObserveExemplar(1.25e-6, ex) }); a != 0 {
			b.Fatalf("ObserveExemplar allocates: %v allocs/op", a)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			th.ObserveExemplar(1.25e-6, ex)
		}
	})
	// Scheduler hot path: the per-region cost every parallel kernel now
	// pays. Two gated shapes: dispatch overhead on a small uniform body
	// (the closure is hoisted, so the steady state must stay
	// allocation-free — rare sync.Pool GC clears are the only tolerated
	// allocs), and a skewed cost ramp exercising the steal path.
	schedOut := make([]float64, 1024)
	schedBody := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			schedOut[i] = float64(i) * 0.5
		}
	}
	b.Run("sched-parallel-for/n=1024", func(b *testing.B) {
		run := func() { sched.ParallelFor(len(schedOut), 0, schedBody) }
		for i := 0; i < 100; i++ {
			run() // warm the job and deque pools before the alloc guard
		}
		if a := testing.AllocsPerRun(200, run); a > 0.5 {
			b.Fatalf("ParallelFor steady state allocates: %v allocs/op", a)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	skewOut := make([]float64, 256)
	skewBody := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := 0.0
			for k := 0; k < i*4; k++ {
				acc += float64(k&7) * 0.25
			}
			skewOut[i] = acc
		}
	}
	b.Run("sched-skewed-steal/n=256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched.ParallelForPolicy(sched.PolicyStealing, len(skewOut), 8, skewBody)
		}
	})
	// Critical-path engine: a fixed synthetic scale-out timeline (4 ranks,
	// 6 skewed compute+barrier rounds) through the full causal analysis —
	// graph build, path walk, wait attribution, what-if replay — the cost
	// of diagnosing one trace. Deterministic and single-goroutine, so it
	// gates cleanly.
	cps := obs.NewSession("bench-critpath")
	for r := 0; r < 4; r++ {
		tr := cps.Track("rank " + strconv.Itoa(r))
		roundStart := time.Duration(0)
		for round := 0; round < 6; round++ {
			work := time.Duration(1+(r+round)%4) * time.Millisecond
			tr.AddSpanOffsets("compute", nil, roundStart, roundStart+work, nil)
			barrierEnd := roundStart + 4*time.Millisecond + 100*time.Microsecond
			tr.AddSpanOffsets("barrier", nil, roundStart+work, barrierEnd, nil)
			roundStart = barrierEnd
		}
	}
	b.Run("critpath-analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := critpath.Analyze(cps, critpath.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sink = rep
		}
	})
	// Edge-interner hit path: dedup runs once per materialized edge, so
	// it scales with graph size and must stay a single map probe. Gated
	// at exactly zero allocations on the hit path.
	b.Run("critpath-edge-intern", func(b *testing.B) {
		es := critpath.NewEdgeSet(16)
		hit := critpath.Edge{From: 1, To: 2, Kind: critpath.EdgeSeq}
		es.Add(hit)
		probe := func() { es.Add(hit) }
		if a := testing.AllocsPerRun(1000, probe); a != 0 {
			b.Fatalf("edge-intern hit path allocates: %v allocs/op", a)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			probe()
		}
	})
	// Tuning-cache hot path: the consultation every tuned kernel entry
	// point now pays on dispatch. Gated at exactly zero allocations with
	// an active table — one atomic load, one map access, a short scan —
	// so wiring the autotuner into the kernels can never tax them.
	b.Run("tune-lookup", func(b *testing.B) {
		tune.ActivateOne(tune.KernelMatMul, 144, tune.Config{Policy: "guided", Tile: 32})
		defer tune.Activate(nil)
		if a := testing.AllocsPerRun(1000, func() {
			tunedCfgSink, _ = tune.Lookup(tune.KernelMatMul, 144)
		}); a != 0 {
			b.Fatalf("tune.Lookup allocates: %v allocs/op", a)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tunedCfgSink, _ = tune.Lookup(tune.KernelMatMul, 144)
		}
	})
	// Job-service admission hot path: the Admit+Done pair every request
	// pays before a kernel runs. ResizeEvery -1 freezes the sizing, so
	// every probe costs the same and the numbers stay comparable with
	// the recorded baselines; a live re-size allocates nothing either,
	// but adds one SizeAdmission call (BenchmarkSizeAdmission in
	// internal/serviced) per ResizeEvery probes. The clock advances one
	// millisecond per probe — with the whole rate budget on one tenant
	// (FairShare 1), the bucket refills ~2 tokens per probe, so the
	// drain never outruns it at any b.N.
	b.Run("serviced-admit", func(b *testing.B) {
		adm, err := serviced.NewAdmission(serviced.AdmissionConfig{
			Servers:            2,
			TargetP99:          10 * time.Second,
			InitialMeanService: time.Millisecond,
			FairShare:          1,
			ResizeEvery:        -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		now := time.Unix(0, 0)
		probe := func() {
			now = now.Add(time.Millisecond)
			d := adm.Admit("bench", now)
			if !d.OK {
				b.Fatalf("admission rejected the bench probe: %s", d.Reason)
			}
			adm.Done(time.Millisecond)
		}
		probe() // warm the tenant bucket before the alloc guard
		if a := testing.AllocsPerRun(1000, probe); a != 0 {
			b.Fatalf("admit/done allocates: %v allocs/op", a)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probe()
		}
	})
	// SSE event encoder: the per-event cost of streaming results to a
	// client. The append encoder reuses the caller's buffer, so the
	// steady state must not allocate — the widest event kind (result)
	// keeps the guard honest.
	b.Run("serviced-event-encode", func(b *testing.B) {
		ev := serviced.Event{
			V: serviced.SchemaVersion, Kind: serviced.KindResult,
			Job: "j-42", Tenant: "bench", Seq: 6,
			Result: &serviced.ResultInfo{
				Kernel: "histogram", Reps: 3, WaitNS: 120_000,
				MeanNS: 410_000, P50NS: 400_000, P95NS: 450_000,
				P99NS: 460_000, TotalNS: 1_230_000,
			},
		}
		buf := make([]byte, 0, 512)
		if a := testing.AllocsPerRun(1000, func() {
			buf = serviced.AppendSSE(buf[:0], &ev)
		}); a != 0 {
			b.Fatalf("event encode allocates: %v allocs/op", a)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = serviced.AppendSSE(buf[:0], &ev)
		}
		sink = buf
	})
}

// tunedCfgSink keeps tune.Lookup results unboxed (assigning to the
// interface sink would itself allocate and mask the 0-alloc contract).
var tunedCfgSink tune.Config

// BenchmarkSchedPolicies is the scheduling-policy ablation of DESIGN.md:
// static vs guided vs stealing decomposition over a uniform body and a
// skewed one (per-index quadratic cost ramp). Uniform work shows the
// policies within noise of each other; on the ramp, static's fixed
// chunks strand the heavy tail on the last executor while stealing
// rebalances it. Not part of the gate subset — the relative shape, not
// the absolute time, is the result (see EXPERIMENTS.md).
func BenchmarkSchedPolicies(b *testing.B) {
	const n = 512
	out := make([]float64, n)
	uniform := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := 0.0
			for k := 0; k < 512; k++ {
				acc += float64(k&7) * 0.25
			}
			out[i] = acc
		}
	}
	skewed := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := 0.0
			for k := 0; k < i*2; k++ {
				acc += float64(k&7) * 0.25
			}
			out[i] = acc
		}
	}
	workloads := []struct {
		name string
		body func(lo, hi int)
	}{
		{"uniform", uniform},
		{"skewed", skewed},
	}
	for _, wl := range workloads {
		for _, pol := range []sched.Policy{sched.PolicyStatic, sched.PolicyGuided, sched.PolicyStealing} {
			b.Run(wl.name+"/"+pol.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sched.ParallelForPolicy(pol, n, 8, wl.body)
				}
			})
		}
	}
	sink = out
}

// ---- E1-E6: the paper's own artifacts ----

// BenchmarkFigure1 regenerates Figure 1 (E1).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := course.Figure1(64, 16)
		if !strings.Contains(fig, "146 enrolled") {
			b.Fatal("Figure 1 totals wrong")
		}
		sink = fig
	}
}

// BenchmarkTable1 regenerates Table 1 (E2).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := course.Table1().String()
		if !strings.Contains(t, "Polyhedral model") {
			b.Fatal("Table 1 incomplete")
		}
		sink = t
	}
}

// BenchmarkTable2a regenerates Table 2a (E3).
func BenchmarkTable2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := course.Table2aReport().String()
		if !strings.Contains(t, "4.5") {
			b.Fatal("Table 2a means wrong")
		}
		sink = t
	}
}

// BenchmarkTable2b regenerates Table 2b (E4).
func BenchmarkTable2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := course.Table2bReport().String()
		if !strings.Contains(t, "Workload") {
			b.Fatal("Table 2b incomplete")
		}
		sink = t
	}
}

// BenchmarkGrading exercises Equations 1-3 over a synthetic cohort (E5).
func BenchmarkGrading(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var avg float64
		n := 0
		for team := 1; team <= 4; team++ {
			for exam := 5.0; exam <= 9; exam += 0.5 {
				rec := course.StudentRecord{
					TeamSize:   team,
					Assignment: [4]float64{8, 7, 9, 10},
					Project:    7.5, Report: 7, MidtermTalk: 8, FinalTalk: 8,
					Exam: exam, QuizScore: 30,
				}
				g, err := rec.Grade()
				if err != nil {
					b.Fatal(err)
				}
				avg += g
				n++
			}
		}
		avg /= float64(n)
		// The paper: "The average grade for the students passing the
		// course is 8."
		if avg < 7 || avg > 9.5 {
			b.Fatalf("cohort average %v implausible", avg)
		}
		sink = avg
	}
}

// BenchmarkFigure2 regenerates the artifact graph (E6).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := course.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		sink = fig
	}
}

// ---- E7: Assignment 1, the matmul ladder ----

// BenchmarkMatMul measures the optimization ladder. Shape: ikj beats naive
// by a growing factor with n; tiled holds up at the largest sizes.
func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		a := kernels.RandomDense(n, 1)
		bb := kernels.RandomDense(n, 2)
		c := kernels.NewDense(n)
		for _, v := range kernels.MatMulVariants(64, 0) {
			v := v
			b.Run(fmt.Sprintf("%s/n=%d", v.Name, n), func(b *testing.B) {
				b.SetBytes(int64(kernels.MatMulCompulsoryBytes(n)))
				for i := 0; i < b.N; i++ {
					v.Run(a, bb, c)
				}
			})
		}
	}
}

// BenchmarkMatMulTileSweep ablates the tile size (DESIGN.md ablation).
func BenchmarkMatMulTileSweep(b *testing.B) {
	n := 256
	a := kernels.RandomDense(n, 1)
	bb := kernels.RandomDense(n, 2)
	c := kernels.NewDense(n)
	for _, tile := range []int{8, 16, 32, 64, 128, 256} {
		tile := tile
		b.Run(fmt.Sprintf("tile=%d", tile), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.MatMulTiled(a, bb, c, tile)
			}
		})
	}
}

// BenchmarkRooflinePlacement benchmarks the modeling side of E7: building
// the model and analyzing a ladder of points.
func BenchmarkRooflinePlacement(b *testing.B) {
	cpu := machine.DAS5CPU()
	for i := 0; i < b.N; i++ {
		m := roofline.CacheAwareFromCPU(cpu)
		for _, ai := range []float64{0.1, 1, 10, 100} {
			a := m.Analyze(roofline.Point{Name: "k", AI: ai, GFLOPS: 5})
			sink = a
		}
	}
}

// ---- E8: Assignment 2, analytical models ----

// BenchmarkAnalyticalModels calibrates and validates the three
// granularities on synthetic matmul data.
func BenchmarkAnalyticalModels(b *testing.B) {
	pts := []analytic.CalibrationPoint{}
	for _, n := range []float64{64, 96, 128, 192} {
		pts = append(pts, analytic.CalibrationPoint{N: n, Seconds: 1e-4 + 2e-9*n*n*n})
	}
	cpu := machine.DAS5CPU()
	b.Run("function-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := &analytic.FunctionModel{ModelName: "fn",
				Work: func(n float64) float64 { return n * n * n }}
			if err := m.Calibrate(pts); err != nil {
				b.Fatal(err)
			}
			v, err := analytic.Validate(m, pts)
			if err != nil || v.MAPE > 0.01 {
				b.Fatalf("calibrated model should be exact: %v %v", v, err)
			}
			sink = v
		}
	})
	b.Run("loop-level-ecm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := analytic.ECMFromStreams("triad", cpu, 3, true, 4)
			if err != nil {
				b.Fatal(err)
			}
			t1, _ := e.SecondsForIterations(1<<20, 1)
			t8, _ := e.SecondsForIterations(1<<20, 8)
			if t8 >= t1 {
				b.Fatal("ECM scaling broken")
			}
			sink = e.SaturationCores()
		}
	})
	b.Run("instruction-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := ports.Analyze(isa.MatMulInnerKernel(), isa.Haswell(), 200)
			if err != nil {
				b.Fatal(err)
			}
			sink = r.Predicted
		}
	})
}

// ---- E9: Assignment 3, SpMV formats and statistical models ----

// BenchmarkSpMVFormats measures the three storage formats. Shape: CSC is
// clearly slowest for y = A*x (scatter on y); CSR and COO are close
// sequentially (COO's single flat loop can even edge out CSR's short
// per-row loops at low nnz/row), and CSR is the format that admits
// row-parallelism.
func BenchmarkSpMVFormats(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		coo := kernels.RandomSparse(n, n, 8*n, 5)
		csr := coo.ToCSR()
		csc := coo.ToCSC()
		x := kernels.UniformSamples(n, 9)
		y := make([]float64, n)
		b.Run(fmt.Sprintf("csr/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(kernels.SpMVCSRBytes(n, csr.NNZ())))
			for i := 0; i < b.N; i++ {
				kernels.SpMVCSR(csr, x, y)
			}
		})
		b.Run(fmt.Sprintf("coo/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.SpMVCOO(coo, x, y)
			}
		})
		b.Run(fmt.Sprintf("csc/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.SpMVCSC(csc, x, y)
			}
		})
	}
}

// BenchmarkSpMVStatModels trains the Assignment 3 model zoo on synthetic
// SpMV features. Shape: every model trains in milliseconds; OLS is the
// cheapest, the forest the costliest.
func BenchmarkSpMVStatModels(b *testing.B) {
	var xs [][]float64
	var ys []float64
	for fi := 0; fi < 4; fi++ {
		for _, n := range []int{400, 800} {
			// rep varies the structure (not just the seed), keeping the
			// design matrix full rank for the OLS fit.
			for rep := 0; rep < 3; rep++ {
				var coo *kernels.COO
				switch fi {
				case 0:
					coo = kernels.RandomSparse(n, n, (8+3*rep)*n, int64(rep))
				case 1:
					coo = kernels.RandomSparse(n, n, (24+5*rep)*n, int64(rep))
				case 2:
					coo = kernels.BandedSparse(n, 4+rep, int64(rep))
				default:
					coo = kernels.PowerLawSparse(n, 10+2*rep, 1.4, int64(rep))
				}
				csr := coo.ToCSR()
				xs = append(xs, statmodel.SpMVFeatures(csr))
				// Synthetic target: bandwidth model + structural noise.
				ys = append(ys, kernels.SpMVCSRBytes(n, csr.NNZ())/25e9*
					(1+0.3*csr.Stats().RowCV))
			}
		}
	}
	// Standardize (as proper methodology requires): raw SpMV features
	// span 6 orders of magnitude, which makes the OLS system numerically
	// rank-deficient.
	std, err := statmodel.FitStandardizer(xs)
	if err != nil {
		b.Fatal(err)
	}
	xs = std.Transform(xs)
	models := map[string]func() statmodel.Regressor{
		"ols":    func() statmodel.Regressor { return &statmodel.LinearRegression{Ridge: 1e-9} },
		"knn":    func() statmodel.Regressor { return &statmodel.KNN{K: 3} },
		"cart":   func() statmodel.Regressor { return &statmodel.RegressionTree{MaxDepth: 6} },
		"forest": func() statmodel.Regressor { return &statmodel.RandomForest{Trees: 20, Seed: 1} },
	}
	for name, mk := range models {
		mk := mk
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := mk()
				if err := m.Fit(xs, ys); err != nil {
					b.Fatal(err)
				}
				v, err := m.Predict(xs[0])
				if err != nil {
					b.Fatal(err)
				}
				sink = v
			}
		})
	}
}

// ---- E10: Assignment 4, counters and patterns ----

// BenchmarkHistogramStrategies ablates the histogram parallelization
// strategies. Shape (multi-core): privatized > atomic > mutex; on a
// single-CPU host they converge.
func BenchmarkHistogramStrategies(b *testing.B) {
	samples := kernels.UniformSamples(1<<20, 7)
	counts := make([]int64, 256)
	strategies := map[string]func(){
		"sequential": func() { kernels.HistogramSeq(samples, counts) },
		"mutex":      func() { kernels.HistogramMutex(samples, counts, 0) },
		"atomic":     func() { kernels.HistogramAtomic(samples, counts, 0) },
		"privatized": func() { kernels.HistogramPrivate(samples, counts, 0) },
	}
	for name, run := range strategies {
		run := run
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(kernels.HistogramBytes(1<<20, 256)))
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkPatternDiagnosis runs the full Assignment 4 loop: trace on the
// simulator, collect counters, match patterns.
func BenchmarkPatternDiagnosis(b *testing.B) {
	cpu := machine.DAS5CPU()
	for i := 0; i < b.N; i++ {
		_, matches, err := patterns.Diagnose(cpu, func(h *simulator.Hierarchy) {
			simulator.TraceStreamTriad(h, 1<<14)
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(matches) == 0 || matches[0].Pattern.Name != "bandwidth-saturation" {
			b.Fatal("diagnosis changed")
		}
		sink = matches
	}
}

// BenchmarkCacheSweep ablates cache associativity under a thrashing trace
// (DESIGN.md ablation): higher associativity absorbs more conflicts.
func BenchmarkCacheSweep(b *testing.B) {
	for _, assoc := range []int{1, 2, 4, 8} {
		assoc := assoc
		b.Run(fmt.Sprintf("assoc=%d", assoc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l1, err := simulator.NewCache("L1", 512/assoc, assoc, 64)
				if err != nil {
					b.Fatal(err)
				}
				h, err := simulator.NewHierarchy(l1)
				if err != nil {
					b.Fatal(err)
				}
				simulator.TraceRandom(h, 1<<14, 1<<13, 3)
				sink = l1.Stats().MissRatio()
			}
		})
	}
}

// ---- E11: scale-out ----

// BenchmarkClusterCollectives measures the collective algorithms on the
// simulated cluster. Shape: tree bcast beats linear as P grows; ring
// allreduce beats tree for large payloads.
func BenchmarkClusterCollectives(b *testing.B) {
	for _, p := range []int{4, 8} {
		for _, elems := range []int{8, 8192} {
			p, elems := p, elems
			b.Run(fmt.Sprintf("bcast-tree/p=%d/elems=%d", p, elems), func(b *testing.B) {
				benchCollective(b, p, elems, func(c *cluster.Comm, data []float64) error {
					_, err := c.Bcast(0, data)
					return err
				})
			})
			b.Run(fmt.Sprintf("bcast-linear/p=%d/elems=%d", p, elems), func(b *testing.B) {
				benchCollective(b, p, elems, func(c *cluster.Comm, data []float64) error {
					_, err := c.BcastLinear(0, data)
					return err
				})
			})
			b.Run(fmt.Sprintf("allreduce-tree/p=%d/elems=%d", p, elems), func(b *testing.B) {
				benchCollective(b, p, elems, func(c *cluster.Comm, data []float64) error {
					_, err := c.Allreduce(data, cluster.SumOp)
					return err
				})
			})
			b.Run(fmt.Sprintf("allreduce-ring/p=%d/elems=%d", p, elems), func(b *testing.B) {
				benchCollective(b, p, elems, func(c *cluster.Comm, data []float64) error {
					_, err := c.AllreduceRing(data, cluster.SumOp)
					return err
				})
			})
		}
	}
}

func benchCollective(b *testing.B, p, elems int, op func(*cluster.Comm, []float64) error) {
	b.Helper()
	w, err := cluster.NewWorld(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = w.Run(func(c *cluster.Comm) error {
		data := make([]float64, elems)
		for i := 0; i < b.N; i++ {
			if err := op(c, data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLogGPModel evaluates the analytical collective models.
func BenchmarkLogGPModel(b *testing.B) {
	m := cluster.LogGP{L: 1e-6, O: 0.5e-6, G: 1e-9, P: 64}
	for i := 0; i < b.N; i++ {
		sink = m.AllreduceRing(1<<20) + m.AllreduceTree(1<<20) + m.Barrier()
	}
}

// ---- E12: queuing theory ----

// BenchmarkQueuingAnalysisVsSimulation runs the rho-sweep validation:
// analysis in nanoseconds, simulation in milliseconds, agreeing answers.
func BenchmarkQueuingAnalysisVsSimulation(b *testing.B) {
	b.Run("analysis-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for rho := 0.1; rho < 0.95; rho += 0.05 {
				q, err := queuing.AnalyzeMMC(rho*4, 1, 4)
				if err != nil {
					b.Fatal(err)
				}
				sink = q.Wq
			}
		}
	})
	b.Run("simulation-one-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := queuing.Simulate(queuing.Exponential(2), queuing.Exponential(3),
				1, 5000, 500, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			sink = r.MeanW
		}
	})
}

// ---- E13: polyhedral ----

// BenchmarkPolyhedral measures dependence analysis + legality checking,
// and the executor under identity vs tiled schedules on the Seidel nest.
func BenchmarkPolyhedral(b *testing.B) {
	b.Run("dependence-analysis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			deps, err := polyhedral.Dependences(polyhedral.MatMulNest(64))
			if err != nil {
				b.Fatal(err)
			}
			ok, err := polyhedral.PermutationLegal(deps, []int{2, 0, 1})
			if err != nil || !ok {
				b.Fatal("matmul permutation must be legal")
			}
			sink = polyhedral.TilingLegal(deps)
		}
	})
	n := 256
	w := n + 1
	a := make([]float64, w*(n+1))
	body := func(iv []int) {
		i, j := iv[0]+1, iv[1]+1
		a[i*w+j] = 0.5 * (a[(i-1)*w+j] + a[i*w+j-1])
	}
	b.Run("execute-identity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := polyhedral.Execute([]int{n, n}, polyhedral.Identity(2), body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute-tiled-32", func(b *testing.B) {
		s := polyhedral.Schedule{Perm: []int{0, 1}, Tile: []int{32, 32}}
		for i := 0; i < b.N; i++ {
			if err := polyhedral.Execute([]int{n, n}, s, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- additional workload benches referenced by EXPERIMENTS.md ----

// BenchmarkStencil measures the project kernel sequential vs parallel,
// plus the shape perfbench's jobs-kernel workload serves.
func BenchmarkStencil(b *testing.B) {
	g := kernels.HotBoundaryGrid(256)
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(int64(kernels.StencilBytes(256)))
		for i := 0; i < b.N; i++ {
			kernels.StencilRun(g, 4, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.StencilRun(g, 4, 0)
		}
	})
	served := kernels.HotBoundaryGrid(512)
	b.Run("parallel/n=512,sweeps=8,w=2", func(b *testing.B) {
		b.SetBytes(int64(kernels.StencilBytes(512) * 8))
		for i := 0; i < b.N; i++ {
			sink = kernels.StencilRun(served, 8, 2)
		}
	})
}

// BenchmarkGameOfLife measures the second most popular project kernel.
// Shape: the padded stepper beats the modulo stepper by hoisting the torus
// wraparound out of the inner loop, and the parallel rung runs the padded
// stepper over row bands. Run and RunPadded reuse their receiver as a
// ping-pong buffer, so every iteration restarts from a copy of the same
// board: all variants see the same input, not one that drifted towards a
// sparse state over earlier iterations.
func BenchmarkGameOfLife(b *testing.B) {
	bench := func(start *kernels.Life, run func(*kernels.Life) *kernels.Life) func(*testing.B) {
		return func(b *testing.B) {
			board := kernels.NewLife(start.W, start.H)
			for i := 0; i < b.N; i++ {
				copy(board.Cells, start.Cells)
				sink = run(board)
			}
		}
	}
	start := kernels.RandomLife(256, 256, 0.3, 11)
	b.Run("sequential-modulo", bench(start, func(l *kernels.Life) *kernels.Life { return l.Run(4, 1) }))
	b.Run("sequential-padded", bench(start, func(l *kernels.Life) *kernels.Life { return l.RunPadded(4) }))
	b.Run("parallel", bench(start, func(l *kernels.Life) *kernels.Life { return l.Run(4, 0) }))
	// The shape perfbench's jobs-kernel workload serves.
	served := kernels.RandomLife(192, 192, 0.3, 11)
	b.Run("parallel/n=192,w=2", bench(served, func(l *kernels.Life) *kernels.Life { return l.Run(8, 2) }))
}

// BenchmarkCachePolicySweep ablates the replacement policy on the cyclic
// overflow pattern (LRU's worst case).
func BenchmarkCachePolicySweep(b *testing.B) {
	for _, pol := range []simulator.Policy{simulator.LRU, simulator.FIFO, simulator.RandomPolicy} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := simulator.NewCache("L1", 1, 4, 64)
				if err != nil {
					b.Fatal(err)
				}
				c.Policy = pol
				for rep := 0; rep < 200; rep++ {
					for l := uint64(0); l < 5; l++ {
						c.Access(l*64, false)
					}
				}
				sink = c.Stats().MissRatio()
			}
		})
	}
}

// BenchmarkFFT contrasts the O(n^2) DFT with the radix-2 FFT ("FFT
// optimizations" project). Shape: the gap widens as ~n/log n.
func BenchmarkFFT(b *testing.B) {
	for _, n := range []int{256, 1024} {
		x := kernels.RandomComplex(n, 3)
		buf := make([]complex128, n)
		b.Run(fmt.Sprintf("dft/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = kernels.DFT(x)
			}
		})
		b.Run(fmt.Sprintf("fft/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, x)
				if err := kernels.FFT(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraph measures BFS, PageRank and the CSR transpose
// (graph-processing project).
func BenchmarkGraph(b *testing.B) {
	g := kernels.RandomGraph(20000, 200000, 13)
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = kernels.BFS(g, 0)
		}
	})
	b.Run("bfs-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = kernels.BFSParallel(g, 0, 0)
		}
	})
	b.Run("pagerank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = kernels.PageRank(g, 0.85, 5)
		}
	})
	// The pull variant perfengd serves: the per-call transpose included.
	b.Run("pagerank-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = kernels.PageRankParallel(g, 0.85, 5, 0)
		}
	})
	b.Run("reverse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = g.Reverse()
		}
	})
}

// BenchmarkPortSimulator measures the OSACA-style analysis itself.
func BenchmarkPortSimulator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := ports.Analyze(isa.DotProductKernel(), isa.Haswell(), 400)
		if err != nil {
			b.Fatal(err)
		}
		sink = r.Simulated
	}
}

// BenchmarkCacheSimulatorThroughput measures simulated accesses/second —
// the practical cost of execution-driven simulation (the "Simulation and
// simulators" lecture's headline trade-off).
func BenchmarkCacheSimulatorThroughput(b *testing.B) {
	h, err := simulator.FromCPU(machine.DAS5CPU())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		h.Load(uint64(i%(1<<20))*8, 8)
	}
}

// BenchmarkWordle measures the "exotic project" solver ladder: naive
// rescoring vs the precomputed feedback table. Shape: the table
// trades O(n^2) memory for a large constant-factor win in the scoring
// loop.
func BenchmarkWordle(b *testing.B) {
	words := kernels.DefaultWordList()
	naive, err := kernels.NewWordle(words)
	if err != nil {
		b.Fatal(err)
	}
	cached, _ := kernels.NewWordle(words)
	cached.Precompute()
	b.Run("naive-rescore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := naive.Solve(i%len(words), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("precomputed-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cached.Solve(i%len(words), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGPUExecutor measures the SIMT substrate: device-wide vector
// add throughput and the cost of the occupancy/offload models.
func BenchmarkGPUExecutor(b *testing.B) {
	model := machine.DAS5TitanX()
	dev, err := gpu.NewDevice(model)
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 18
	x := make([]float64, n)
	y := make([]float64, n)
	b.Run("vecadd-launch", func(b *testing.B) {
		b.SetBytes(int64(16 * n))
		for i := 0; i < b.N; i++ {
			if err := dev.Launch1D(n, 256, func(id int) {
				if id < n {
					y[id] = x[id] + 1
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("occupancy-model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est, err := gpu.EstimateKernel(model, 1e9, 1e9, 256, 32, 4096, 1)
			if err != nil {
				b.Fatal(err)
			}
			sink = gpu.EstimateOffload(model, est, 1e8, 1e8, 0.01)
		}
	})
}

// BenchmarkBranchPrediction is the canonical "sorted array is faster"
// demonstration on real hardware, with the branchless select as the fix.
// Shape: sorted ~ branchless < unsorted for the branchy loop. The
// simulator's gshare model reproduces the same story deterministically
// (TestBranchPredictorSortedVsRandom).
func BenchmarkBranchPrediction(b *testing.B) {
	n := 1 << 16
	unsorted := kernels.UniformSamples(n, 3)
	sorted := kernels.SortedSamples(n, 3)
	var acc float64
	b.Run("branchy-unsorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc += kernels.SumAbove(unsorted, 0.5)
		}
	})
	b.Run("branchy-sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc += kernels.SumAbove(sorted, 0.5)
		}
	})
	b.Run("branchless-unsorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc += kernels.SumAboveBranchless(unsorted, 0.5)
		}
	})
	sink = acc
	b.Run("predictor-model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bp, err := simulator.NewBranchPredictor(12, 8)
			if err != nil {
				b.Fatal(err)
			}
			simulator.TraceBranchySum(bp, unsorted, 0.5)
			sink = bp.MispredictRate()
		}
	})
}
