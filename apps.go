package perfeng

import (
	"fmt"
	"sort"

	"perfeng/internal/kernels"
)

// BuiltinApplications lists the names accepted by BuiltinApplication: the
// course's assignment kernels plus the recurring student-project kernels
// of Section 5.1.
func BuiltinApplications() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var builders = map[string]func(n, workers int) *Application{
	"matmul":     buildMatMul,
	"histogram":  buildHistogram,
	"spmv":       buildSpMV,
	"stencil":    buildStencil,
	"gameoflife": buildGameOfLife,
	"fft":        buildFFT,
	"bfs":        buildBFS,
	"pagerank":   buildPageRank,
	"wordle":     buildWordle,
}

// BuiltinApplication returns a ready-to-engage Application for one of the
// course kernels. n is the problem size (kernel-specific meaning);
// workers is the parallel worker count for the parallel variants
// (0 = GOMAXPROCS).
func BuiltinApplication(name string, n, workers int) (*Application, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("perfeng: unknown application %q (have %v)",
			name, BuiltinApplications())
	}
	if n <= 0 {
		return nil, fmt.Errorf("perfeng: application %q needs positive size", name)
	}
	return b(n, workers), nil
}

func buildMatMul(n, workers int) *Application {
	a := kernels.RandomDense(n, 1)
	b := kernels.RandomDense(n, 2)
	c := kernels.NewDense(n)
	tile := 64
	return &Application{
		Name:  fmt.Sprintf("matmul-n%d", n),
		FLOPs: kernels.MatMulFLOPs(n),
		Bytes: kernels.MatMulCompulsoryBytes(n),
		Baseline: Variant{Name: "naive-ijk", Run: func() {
			kernels.MatMulNaive(a, b, c)
		}},
		Candidates: []Variant{
			{Name: "reordered-ikj", Run: func() { kernels.MatMulIKJ(a, b, c) }},
			{Name: "transposed", Run: func() { kernels.MatMulTransposed(a, b, c) }},
			{Name: "tiled", Run: func() { kernels.MatMulTiled(a, b, c, tile) }},
			{Name: "parallel-ikj", Procs: workers,
				Run: func() { kernels.MatMulParallel(a, b, c, workers) }},
			{Name: "parallel-tiled", Procs: workers,
				Run: func() { kernels.MatMulParallelTiled(a, b, c, workers, tile) }},
		},
	}
}

// buildHistogram's parallel variants run through the instance's own
// workspace, which keeps their loop bodies and private bins.
func buildHistogram(n, workers int) *Application {
	samples := kernels.UniformSamples(n, 7)
	const bins = 256
	counts := make([]int64, bins)
	ws := kernels.NewHistogramWorkspace(samples, counts)
	clear := func() {
		for i := range counts {
			counts[i] = 0
		}
	}
	return &Application{
		Name:  fmt.Sprintf("histogram-n%d", n),
		FLOPs: kernels.HistogramFLOPs(n),
		Bytes: kernels.HistogramBytes(n, bins),
		Baseline: Variant{Name: "sequential", Run: func() {
			clear()
			kernels.HistogramSeq(samples, counts)
		}},
		Candidates: []Variant{
			{Name: "mutex", Procs: workers, Run: func() {
				clear()
				ws.Mutex(workers)
			}},
			{Name: "atomic", Procs: workers, Run: func() {
				clear()
				ws.Atomic(workers)
			}},
			{Name: "privatized", Procs: workers, Run: func() {
				clear()
				ws.Private(workers)
			}},
		},
	}
}

func buildSpMV(n, workers int) *Application {
	coo := kernels.RandomSparse(n, n, 8*n, 5)
	csr := coo.ToCSR()
	csc := coo.ToCSC()
	x := kernels.UniformSamples(n, 9)
	y := make([]float64, n)
	return &Application{
		Name:  fmt.Sprintf("spmv-n%d", n),
		FLOPs: kernels.SpMVFLOPs(csr.NNZ()),
		Bytes: kernels.SpMVCSRBytes(n, csr.NNZ()),
		Baseline: Variant{Name: "coo", Run: func() {
			kernels.SpMVCOO(coo, x, y)
		}},
		Candidates: []Variant{
			{Name: "csc", Run: func() { kernels.SpMVCSC(csc, x, y) }},
			{Name: "csr", Run: func() { kernels.SpMVCSR(csr, x, y) }},
			{Name: "csr-parallel", Procs: workers,
				Run: func() { kernels.SpMVCSRParallel(csr, x, y, workers) }},
		},
	}
}

// buildStencil's application keeps only its workspace's two grids. The
// first is the input grid itself: every run writes the hot-boundary
// condition into it and sweeps from there, so no third grid is ever
// allocated. Each application instance owns its workspace, so instances
// may run concurrently.
func buildStencil(n, workers int) *Application {
	in := kernels.HotBoundaryGrid(n)
	ws := kernels.NewStencilWorkspace(in)
	const sweeps = 8
	run := func(w int) {
		kernels.SetHotBoundary(in)
		ws.Run(in, sweeps, w)
	}
	return &Application{
		Name:  fmt.Sprintf("stencil-n%d", n),
		FLOPs: kernels.StencilFLOPs(n, sweeps),
		Bytes: kernels.StencilBytes(n) * sweeps,
		Baseline: Variant{Name: "sequential", Run: func() {
			run(1)
		}},
		Candidates: []Variant{
			{Name: "parallel", Procs: workers, Run: func() {
				run(workers)
			}},
		},
	}
}

// buildGameOfLife's variants all step from the same board, which they
// only read, through the instance's own workspace.
func buildGameOfLife(n, workers int) *Application {
	b := kernels.RandomLife(n, n, 0.3, 11)
	ws := kernels.NewLifeWorkspace(n, n)
	const gens = 8
	return &Application{
		Name:  fmt.Sprintf("gameoflife-n%d", n),
		FLOPs: 0,
		Bytes: float64(n) * float64(n) * 2 * gens,
		Baseline: Variant{Name: "sequential-modulo", Run: func() {
			ws.Run(b, gens, 1)
		}},
		Candidates: []Variant{
			{Name: "sequential-padded", Run: func() {
				ws.RunPadded(b, gens)
			}},
			{Name: "parallel", Procs: workers, Run: func() {
				ws.Run(b, gens, workers)
			}},
		},
	}
}

func buildFFT(n, workers int) *Application {
	// Round n up to a power of two.
	size := 1
	for size < n {
		size <<= 1
	}
	x := kernels.RandomComplex(size, 3)
	buf := make([]complex128, size)
	out := make([]complex128, size)
	return &Application{
		Name:  fmt.Sprintf("fft-n%d", size),
		FLOPs: kernels.FFTFLOPs(size),
		Bytes: float64(size) * 16 * 2,
		Baseline: Variant{Name: "dft-n2", Run: func() {
			kernels.DFTInto(out, x)
		}},
		Candidates: []Variant{
			{Name: "fft-radix2", Run: func() {
				copy(buf, x)
				if err := kernels.FFT(buf); err != nil {
					panic(err)
				}
			}},
		},
	}
}

func buildBFS(n, workers int) *Application {
	g := kernels.RandomGraph(n, 16*n, 13)
	return &Application{
		Name:  fmt.Sprintf("bfs-n%d", n),
		FLOPs: 0,
		Bytes: float64(g.M())*4 + float64(n)*4,
		Baseline: Variant{Name: "sequential", Run: func() {
			kernels.BFS(g, 0)
		}},
		Candidates: []Variant{
			{Name: "parallel", Procs: workers, Run: func() {
				kernels.BFSParallel(g, 0, workers)
			}},
		},
	}
}

func buildWordle(n, workers int) *Application {
	words := kernels.DefaultWordList()
	if n < len(words) {
		words = words[:n]
	}
	naive, err := kernels.NewWordle(words)
	if err != nil {
		panic(err) // the default list is valid by construction
	}
	cached, _ := kernels.NewWordle(words)
	cached.Precompute()
	answer := len(words) / 2
	solve := func(w *kernels.Wordle, parallel int) {
		if _, err := w.Solve(answer, parallel); err != nil {
			panic(err)
		}
	}
	return &Application{
		Name:  fmt.Sprintf("wordle-%dwords", len(words)),
		FLOPs: 0,
		Bytes: float64(len(words)) * float64(len(words)), // table bytes
		Baseline: Variant{Name: "naive-rescore", Run: func() {
			solve(naive, 0)
		}},
		Candidates: []Variant{
			{Name: "precomputed-table", Run: func() { solve(cached, 0) }},
			{Name: "parallel-scoring", Procs: workers,
				Run: func() { solve(cached, workers) }},
		},
	}
}

func buildPageRank(n, workers int) *Application {
	g := kernels.RandomGraph(n, 16*n, 17)
	const iters = 5
	return &Application{
		Name:  fmt.Sprintf("pagerank-n%d", n),
		FLOPs: float64(g.M()+g.N) * 2 * iters,
		Bytes: (float64(g.M())*12 + float64(n)*16) * iters,
		Baseline: Variant{Name: "sequential", Run: func() {
			kernels.PageRank(g, 0.85, iters)
		}},
		Candidates: []Variant{
			{Name: "parallel-pull", Procs: workers, Run: func() {
				kernels.PageRankParallel(g, 0.85, iters, workers)
			}},
		},
	}
}
