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
	for j := 0; j < n+2; j++ {
		g.Set(0, j, 1)
	}
	return g
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
func StencilSweep(src, dst *Grid2D) {
	n, w := src.N, src.N+2
	for i := 1; i <= n; i++ {
		up := src.Data[(i-1)*w:]
		mid := src.Data[i*w:]
		down := src.Data[(i+1)*w:]
		out := dst.Data[i*w:]
		for j := 1; j <= n; j++ {
			out[j] = 0.25 * (up[j] + down[j] + mid[j-1] + mid[j+1])
		}
	}
}

// StencilSweepParallel performs one Jacobi sweep with interior row bands
// split over the shared scheduler.
func StencilSweepParallel(src, dst *Grid2D, workers int) {
	n, w := src.N, src.N+2
	parForTuned(tune.KernelStencil, n, workers, func(lo, hi int) {
		for i := lo + 1; i <= hi; i++ { // interior rows are 1..n
			up := src.Data[(i-1)*w:]
			mid := src.Data[i*w:]
			down := src.Data[(i+1)*w:]
			out := dst.Data[i*w:]
			for j := 1; j <= n; j++ {
				out[j] = 0.25 * (up[j] + down[j] + mid[j-1] + mid[j+1])
			}
		}
	})
}

// StencilRun performs sweeps Jacobi sweeps and returns the grid holding
// the final iterate. g itself is never modified. A sweep overwrites every
// interior cell, so the two scratch grids it ping-pongs between get only
// g's halo ring copied in, and the first sweep reads g directly; the
// result is bit-identical to sweeping from two full clones of g. sweeps
// <= 0 returns a clone. workers == 1 runs sequentially; any other value
// is the usual decomposition knob (0 = dynamic pool, possibly tuned, like
// every other parallel kernel here).
func StencilRun(g *Grid2D, sweeps, workers int) *Grid2D {
	if sweeps <= 0 {
		return g.Clone()
	}
	dst, spare := NewGrid2D(g.N), NewGrid2D(g.N)
	copyHalo(dst, g)
	copyHalo(spare, g)
	src := g
	for s := 0; s < sweeps; s++ {
		if workers == 1 {
			StencilSweep(src, dst)
		} else {
			StencilSweepParallel(src, dst, workers)
		}
		src, dst, spare = dst, spare, dst
	}
	return src
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
