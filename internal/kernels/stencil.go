package kernels

import (
	"math"

	"perfeng/internal/tune"
)

// 2D 5-point Jacobi stencil — the most popular student project in the
// course's history ("2D stencil code optimization", Section 5.1). The grid
// is (n+2) x (n+2) with a fixed boundary ring; one sweep updates the n x n
// interior from the previous iterate.

// Grid2D is a square 2D grid with a one-cell halo.
type Grid2D struct {
	N    int       // interior size
	Data []float64 // (N+2)*(N+2), row-major
}

// NewGrid2D allocates an n x n interior grid with halo. It panics for
// n <= 0.
func NewGrid2D(n int) *Grid2D {
	if n <= 0 {
		panic("kernels: non-positive grid size")
	}
	return &Grid2D{N: n, Data: make([]float64, (n+2)*(n+2))}
}

// At returns cell (i, j), where (0,0) is the top-left halo corner.
func (g *Grid2D) At(i, j int) float64 { return g.Data[i*(g.N+2)+j] }

// Set assigns cell (i, j).
func (g *Grid2D) Set(i, j int, v float64) { g.Data[i*(g.N+2)+j] = v }

// Clone returns a deep copy.
func (g *Grid2D) Clone() *Grid2D {
	c := NewGrid2D(g.N)
	copy(c.Data, g.Data)
	return c
}

// MaxAbsDiff returns the largest elementwise difference, +Inf on size
// mismatch.
func (g *Grid2D) MaxAbsDiff(o *Grid2D) float64 {
	if g.N != o.N {
		return math.Inf(1)
	}
	var max float64
	for i, v := range g.Data {
		d := v - o.Data[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// HotBoundaryGrid returns an n-grid with the top halo row at 1 and the rest
// 0 — the classic heat-diffusion initial condition.
func HotBoundaryGrid(n int) *Grid2D {
	g := NewGrid2D(n)
	SetHotBoundary(g)
	return g
}

// SetHotBoundary overwrites g with HotBoundaryGrid's initial condition.
func SetHotBoundary(g *Grid2D) {
	clear(g.Data)
	for j := 0; j < g.N+2; j++ {
		g.Set(0, j, 1)
	}
}

// StencilFLOPs returns the work of sweeps Jacobi sweeps on an n x n
// interior (4 adds + 1 multiply per point).
func StencilFLOPs(n, sweeps int) float64 {
	return 5 * float64(n) * float64(n) * float64(sweeps)
}

// StencilBytes returns the compulsory traffic of one sweep: read the source
// grid, write the destination interior.
func StencilBytes(n int) float64 {
	f := float64(n)
	return (f+2)*(f+2)*8 + f*f*8
}

// StencilSweep performs one Jacobi sweep dst <- avg4(src) over the interior.
// dst and src must be distinct grids of the same size.
func StencilSweep(src, dst *Grid2D) { stencilRows(src, dst, 1, src.N+1) }

// StencilSweepParallel performs one Jacobi sweep with interior row bands
// split over the shared scheduler.
func StencilSweepParallel(src, dst *Grid2D, workers int) {
	parForTuned(tune.KernelStencil, src.N, workers, func(lo, hi int) {
		stencilRows(src, dst, lo+1, hi+1) // interior rows are 1..n
	})
}

// stencilRows updates interior rows [lo, hi) of dst from src, the one
// loop body every sweep runs. Disjoint row ranges may run concurrently.
func stencilRows(src, dst *Grid2D, lo, hi int) {
	n, w := src.N, src.N+2
	for i := lo; i < hi; i++ {
		// Every operand is resliced to exactly the n interior cells of
		// its row, so the inner loop runs without bounds checks
		// (-d=ssa/check_bce). left and right are mid shifted by one.
		out := dst.Data[i*w+1:][:n]
		up := src.Data[(i-1)*w+1:][:n]
		down := src.Data[(i+1)*w+1:][:n]
		left := src.Data[i*w:][:n]
		right := src.Data[i*w+2:][:n]
		for j := range out {
			out[j] = 0.25 * (up[j] + down[j] + left[j] + right[j])
		}
	}
}

// StencilWorkspace holds the two grids a Jacobi run ping-pongs between,
// so repeated runs on one grid shape allocate nothing. A sweep overwrites
// only the interior, so the second grid gets the halo ring once, when the
// workspace is built. A workspace is not safe for concurrent use.
type StencilWorkspace struct {
	in       *Grid2D          // the first grid, adopted from the caller
	spare    Grid2D           // the second grid
	src, dst *Grid2D          // the parallel sweep in flight, read by rows
	rows     func(lo, hi int) // built on the first parallel sweep
}

// NewStencilWorkspace returns a workspace that adopts g as its first grid
// and allocates a second grid carrying g's halo ring. A caller may write
// an initial condition into g's interior and run from g, which keeps no
// grid beside the workspace's two; such runs overwrite g, so a caller
// that needs g unchanged adopts a copy instead, as StencilRun does.
func NewStencilWorkspace(g *Grid2D) *StencilWorkspace {
	ws := &StencilWorkspace{in: g, spare: *NewGrid2D(g.N)}
	copyHalo(&ws.spare, g)
	return ws
}

// Run performs sweeps Jacobi sweeps from g and returns the grid holding
// the final iterate: g itself when sweeps <= 0, otherwise one of the
// workspace's grids, valid until the next Run. g is either a grid outside
// the workspace, which is only read, or one of the workspace's own (the
// adopted grid or a previous result), which the sweeps may overwrite. g's halo ring must be the
// workspace's. workers has StencilRun's meaning.
func (ws *StencilWorkspace) Run(g *Grid2D, sweeps, workers int) *Grid2D {
	dst, spare := ws.in, &ws.spare
	if g == dst {
		dst, spare = spare, dst
	}
	src := g
	for s := 0; s < sweeps; s++ {
		ws.sweep(src, dst, workers)
		src, dst, spare = dst, spare, dst
	}
	return src
}

// sweep runs one sweep src -> dst, in parallel through the workspace's
// one row closure unless workers == 1.
func (ws *StencilWorkspace) sweep(src, dst *Grid2D, workers int) {
	if workers == 1 {
		stencilRows(src, dst, 1, src.N+1)
		return
	}
	ws.src, ws.dst = src, dst
	if ws.rows == nil {
		ws.rows = func(lo, hi int) { stencilRows(ws.src, ws.dst, lo+1, hi+1) }
	}
	parForTuned(tune.KernelStencil, src.N, workers, ws.rows)
}

// StencilRun performs sweeps Jacobi sweeps and returns the grid holding
// the final iterate. g itself is never modified. It builds one
// StencilWorkspace of two scratch grids that get only g's halo ring
// copied in, and runs it from g, so the first sweep reads g directly; the
// result is bit-identical to sweeping from two full clones of g. Callers
// that run one shape repeatedly keep a StencilWorkspace instead. sweeps
// <= 0 returns a clone. workers == 1 runs sequentially; any other value
// is the usual decomposition knob (0 = dynamic pool, possibly tuned, like
// every other parallel kernel here).
func StencilRun(g *Grid2D, sweeps, workers int) *Grid2D {
	if sweeps <= 0 {
		return g.Clone()
	}
	in := NewGrid2D(g.N)
	copyHalo(in, g)
	return NewStencilWorkspace(in).Run(g, sweeps, workers)
}

// copyHalo copies src's one-cell boundary ring into dst, a grid of the
// same size.
func copyHalo(dst, src *Grid2D) {
	w := src.N + 2
	last := (w - 1) * w
	copy(dst.Data[:w], src.Data[:w])
	copy(dst.Data[last:], src.Data[last:])
	for i := w; i < last; i += w {
		dst.Data[i] = src.Data[i]
		dst.Data[i+w-1] = src.Data[i+w-1]
	}
}

// StencilResidual returns the max |a-b| over the interior, the convergence
// measure for Jacobi iteration.
func StencilResidual(a, b *Grid2D) float64 {
	n, w := a.N, a.N+2
	ad, bd := a.Data, b.Data
	var max float64
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			d := ad[i*w+j] - bd[i*w+j]
			if d < 0 {
				d = -d
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}
