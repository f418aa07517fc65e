// Package kernels implements the computational kernels the course's four
// assignments and recurring student projects are built on: dense matrix
// multiplication in the optimization ladder of Assignment 1 (naive, loop
// reordering, tiling, parallel), the data-dependent histogram of
// Assignment 2, the sparse matrix-vector product of Assignments 3 and 4 in
// the three classical storage formats (CSR, CSC, COO), and the popular
// project kernels (2D stencil, Game of Life, FFT, graph processing).
//
// Every kernel comes with a work/traffic characterization (FLOPs and
// compulsory bytes) so measurements can be placed on a Roofline and fed to
// the analytical models.
package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"perfeng/internal/tune"
)

// Dense is a dense row-major n x n matrix of float64.
type Dense struct {
	N    int
	Data []float64 // len N*N, row-major
}

// NewDense allocates an n x n zero matrix. It panics for n <= 0.
func NewDense(n int) *Dense {
	if n <= 0 {
		panic("kernels: non-positive matrix size")
	}
	return &Dense{N: n, Data: make([]float64, n*n)}
}

// RandomDense returns an n x n matrix with uniform entries in [0, 1)
// generated from seed (deterministic).
func RandomDense(n int, seed int64) *Dense {
	m := NewDense(n)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.N)
	copy(c.Data, m.Data)
	return c
}

// MaxAbsDiff returns the largest elementwise |m-b|, or +Inf on size
// mismatch.
func (m *Dense) MaxAbsDiff(b *Dense) float64 {
	if m.N != b.N {
		return math.Inf(1)
	}
	var max float64
	for i, v := range m.Data {
		d := v - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// MatMulFLOPs returns the floating-point work of an n x n matmul
// (n^3 multiplies + n^3 adds).
func MatMulFLOPs(n int) float64 { f := float64(n); return 2 * f * f * f }

// MatMulCompulsoryBytes returns the compulsory memory traffic of an n x n
// matmul: reading A and B and writing C once (3*n^2 doubles). Real traffic
// is higher for cache-unfriendly variants; the cache simulator measures that.
func MatMulCompulsoryBytes(n int) float64 { f := float64(n); return 3 * f * f * 8 }

// MatMulNaive computes c = a*b with the textbook i-j-k loop order. The
// innermost loop strides down a column of b, which is the cache behaviour
// Assignment 1 asks students to diagnose.
func MatMulNaive(a, b, c *Dense) {
	n := mustSameSize(a, b, c)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < n; k++ {
				//perfvet:ignore:bcehint verbatim textbook baseline of the Assignment 1 ladder; the reloads are part of what students diagnose
				sum += a.Data[i*n+k] * b.Data[k*n+j]
			}
			//perfvet:ignore:bcehint verbatim textbook baseline of the Assignment 1 ladder
			c.Data[i*n+j] = sum
		}
	}
}

// MatMulIKJ computes c = a*b with the i-k-j loop order: the innermost loop
// walks rows of b and c with unit stride — the first optimization the
// assignment suggests ("loop reordering").
func MatMulIKJ(a, b, c *Dense) {
	n := mustSameSize(a, b, c)
	for i := range c.Data {
		c.Data[i] = 0
	}
	ad := a.Data
	for i := 0; i < n; i++ {
		crow := c.Data[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			av := ad[i*n+k]
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulTransposed computes c = a*b via an explicit transpose of b, turning
// the inner product into two unit-stride streams.
func MatMulTransposed(a, b, c *Dense) {
	n := mustSameSize(a, b, c)
	bt := NewDense(n)
	btd, bd := bt.Data, b.Data
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			btd[j*n+i] = bd[i*n+j]
		}
	}
	cd := c.Data
	for i := 0; i < n; i++ {
		arow := a.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			btrow := btd[j*n : (j+1)*n]
			var sum float64
			for k, av := range arow {
				sum += av * btrow[k]
			}
			cd[i*n+j] = sum
		}
	}
}

// MatMulTiled computes c = a*b with square tiling of all three loops
// ("loop tiling" in the assignment), tile being the tile edge. A
// non-positive tile consults the tuning cache, then falls back to 64.
// The row tiles of c and b are resliced to the tile's column range and
// the inner loop ranges over the b tile, so it runs without bounds checks
// (-d=ssa/check_bce). Every c[i][j] still accumulates over k in ascending
// order, so for finite inputs the result is bit-identical to MatMulIKJ.
func MatMulTiled(a, b, c *Dense, tile int) {
	n := mustSameSize(a, b, c)
	tile = tunedTile(tune.KernelMatMul, n, tile, 64)
	for i := range c.Data {
		c.Data[i] = 0
	}
	ad := a.Data
	for ii := 0; ii < n; ii += tile {
		imax := min(ii+tile, n)
		for kk := 0; kk < n; kk += tile {
			kmax := min(kk+tile, n)
			for jj := 0; jj < n; jj += tile {
				jmax := min(jj+tile, n)
				for i := ii; i < imax; i++ {
					crow := c.Data[i*n+jj : i*n+jmax]
					for k := kk; k < kmax; k++ {
						av := ad[i*n+k]
						brow := b.Data[k*n+jj : k*n+jmax][:len(crow)]
						for j, bv := range brow {
							crow[j] += av * bv
						}
					}
				}
			}
		}
	}
}

// MatMulParallel computes c = a*b with the ikj order, splitting rows of c
// over the shared scheduler. workers > 0 pins a static decomposition into
// that many row bands; workers <= 0 lets the pool steal dynamically.
func MatMulParallel(a, b, c *Dense, workers int) {
	n := mustSameSize(a, b, c)
	ad := a.Data
	parForTuned(tune.KernelMatMul, n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := c.Data[i*n : (i+1)*n]
			for j := range crow {
				crow[j] = 0
			}
			for k := 0; k < n; k++ {
				av := ad[i*n+k]
				brow := b.Data[k*n : (k+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	})
}

// MatMulParallelTiled combines tiling with row-block parallelism: each
// executed range owns a horizontal band of c and tiles the k and j loops
// within it, with the same bounds-check-free inner loop as MatMulTiled.
func MatMulParallelTiled(a, b, c *Dense, workers, tile int) {
	n := mustSameSize(a, b, c)
	tile = tunedTile(tune.KernelMatMul, n, tile, 64)
	ad := a.Data
	parForTuned(tune.KernelMatMul, n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := c.Data[i*n : (i+1)*n]
			for j := range row {
				row[j] = 0
			}
		}
		for kk := 0; kk < n; kk += tile {
			kmax := min(kk+tile, n)
			for jj := 0; jj < n; jj += tile {
				jmax := min(jj+tile, n)
				for i := lo; i < hi; i++ {
					crow := c.Data[i*n+jj : i*n+jmax]
					for k := kk; k < kmax; k++ {
						av := ad[i*n+k]
						brow := b.Data[k*n+jj : k*n+jmax][:len(crow)]
						for j, bv := range brow {
							crow[j] += av * bv
						}
					}
				}
			}
		}
	})
}

// MatMulVariant names one member of the matmul optimization ladder.
type MatMulVariant struct {
	Name string
	// Parallel reports whether the variant uses multiple workers.
	Parallel bool
	Run      func(a, b, c *Dense)
}

// MatMulVariants returns the optimization ladder of Assignment 1 in
// pedagogical order, using the given tile size and worker count for the
// variants that take them.
func MatMulVariants(tile, workers int) []MatMulVariant {
	return []MatMulVariant{
		{Name: "naive-ijk", Run: MatMulNaive},
		{Name: "reordered-ikj", Run: MatMulIKJ},
		{Name: "transposed", Run: MatMulTransposed},
		{Name: "tiled", Run: func(a, b, c *Dense) { MatMulTiled(a, b, c, tile) }},
		{Name: "parallel-ikj", Parallel: true,
			Run: func(a, b, c *Dense) { MatMulParallel(a, b, c, workers) }},
		{Name: "parallel-tiled", Parallel: true,
			Run: func(a, b, c *Dense) { MatMulParallelTiled(a, b, c, workers, tile) }},
	}
}

func mustSameSize(ms ...*Dense) int {
	n := ms[0].N
	for _, m := range ms {
		if m.N != n {
			panic(fmt.Sprintf("kernels: size mismatch %d vs %d", m.N, n))
		}
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
