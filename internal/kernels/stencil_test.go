package kernels

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGrid2DBasics(t *testing.T) {
	g := NewGrid2D(4)
	g.Set(2, 3, 1.5)
	if g.At(2, 3) != 1.5 {
		t.Fatal("At/Set broken")
	}
	c := g.Clone()
	c.Set(1, 1, 9)
	if g.At(1, 1) != 0 {
		t.Fatal("Clone not deep")
	}
	if math.IsInf(g.MaxAbsDiff(c), 1) || g.MaxAbsDiff(c) != 9 {
		t.Fatalf("MaxAbsDiff = %v", g.MaxAbsDiff(c))
	}
	if !math.IsInf(g.MaxAbsDiff(NewGrid2D(5)), 1) {
		t.Fatal("size mismatch should be Inf")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid2D(0) must panic")
		}
	}()
	NewGrid2D(0)
}

func TestStencilSweepAveraging(t *testing.T) {
	// A uniform field is a fixed point of the 4-point average.
	g := NewGrid2D(6)
	for i := range g.Data {
		g.Data[i] = 3
	}
	dst := NewGrid2D(6)
	StencilSweep(g, dst)
	for i := 1; i <= 6; i++ {
		for j := 1; j <= 6; j++ {
			if dst.At(i, j) != 3 {
				t.Fatalf("uniform field not fixed point at (%d,%d): %v", i, j, dst.At(i, j))
			}
		}
	}
}

func TestStencilParallelMatchesSequential(t *testing.T) {
	g := HotBoundaryGrid(33)
	for _, w := range []int{1, 2, 5, 16, 64} {
		seq := StencilRun(g, 10, 1)
		par := StencilRun(g, 10, w)
		if d := seq.MaxAbsDiff(par); d > 1e-12 {
			t.Fatalf("workers=%d differs by %v", w, d)
		}
	}
}

func TestStencilHeatFlowsDown(t *testing.T) {
	g := HotBoundaryGrid(16)
	out := StencilRun(g, 50, 1)
	// Row 1 (next to the hot boundary) must be warmer than row 16.
	if out.At(1, 8) <= out.At(16, 8) {
		t.Fatalf("heat did not diffuse: top %v bottom %v", out.At(1, 8), out.At(16, 8))
	}
	// All interior values stay in [0, 1] (max principle).
	for i := 1; i <= 16; i++ {
		for j := 1; j <= 16; j++ {
			v := out.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("max principle violated at (%d,%d): %v", i, j, v)
			}
		}
	}
}

func TestStencilResidualShrinks(t *testing.T) {
	g := HotBoundaryGrid(12)
	a := StencilRun(g, 5, 1)
	b := StencilRun(g, 6, 1)
	early := StencilResidual(a, b)
	c := StencilRun(g, 50, 1)
	d := StencilRun(g, 51, 1)
	late := StencilResidual(c, d)
	if late >= early {
		t.Fatalf("Jacobi not converging: early %v late %v", early, late)
	}
}

func TestStencilWorkCharacterization(t *testing.T) {
	if StencilFLOPs(10, 2) != 1000 {
		t.Fatalf("StencilFLOPs = %v", StencilFLOPs(10, 2))
	}
	if StencilBytes(10) <= 0 {
		t.Fatal("StencilBytes must be positive")
	}
}

// Property: one sweep never exceeds the bounds of the source field
// (discrete maximum principle).
func TestQuickStencilMaxPrinciple(t *testing.T) {
	f := func(seed int64) bool {
		g := NewGrid2D(8)
		rngFill(g, seed)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range g.Data {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		dst := NewGrid2D(8)
		StencilSweep(g, dst)
		for i := 1; i <= 8; i++ {
			for j := 1; j <= 8; j++ {
				v := dst.At(i, j)
				if v < lo-1e-12 || v > hi+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func rngFill(g *Grid2D, seed int64) {
	s := uint64(seed)*2862933555777941757 + 3037000493
	for i := range g.Data {
		s = s*2862933555777941757 + 3037000493
		g.Data[i] = float64(s>>11) / float64(1<<53)
	}
}

func TestStencilRunDoesNotMutateInput(t *testing.T) {
	// Regression: StencilRun used to ping-pong into the caller's grid,
	// corrupting it for sweeps >= 2.
	g := HotBoundaryGrid(10)
	orig := g.Clone()
	for _, sweeps := range []int{0, 1, 2, 3, 7} {
		StencilRun(g, sweeps, 1)
		if d := g.MaxAbsDiff(orig); d != 0 {
			t.Fatalf("sweeps=%d mutated the input grid by %v", sweeps, d)
		}
	}
}

// stencilRunClones is StencilRun as it was before the halo-only scratch:
// both ping-pong grids start as full clones of g. It is the oracle for
// TestStencilRunMatchesCloneOracle.
func stencilRunClones(g *Grid2D, sweeps, workers int) *Grid2D {
	src, dst := g.Clone(), g.Clone()
	for s := 0; s < sweeps; s++ {
		if workers == 1 {
			StencilSweep(src, dst)
		} else {
			StencilSweepParallel(src, dst, workers)
		}
		src, dst = dst, src
	}
	return src
}

// TestStencilRunMatchesCloneOracle: sweeping from g and two halo-only
// scratch grids must give bit-for-bit the clone-based result. rngFill
// gives every halo cell its own value, so a halo edge or corner left
// uncopied in either scratch grid changes the result.
func TestStencilRunMatchesCloneOracle(t *testing.T) {
	for _, n := range []int{1, 2, 13} {
		g := NewGrid2D(n)
		rngFill(g, int64(n))
		orig := g.Clone()
		for _, sweeps := range []int{0, 1, 2, 3, 8} {
			for _, w := range []int{1, 2, 0} {
				want := stencilRunClones(g, sweeps, w)
				got := StencilRun(g, sweeps, w)
				if got == g {
					t.Fatalf("n=%d sweeps=%d workers=%d: StencilRun returned its input", n, sweeps, w)
				}
				for i, v := range want.Data {
					if got.Data[i] != v {
						t.Fatalf("n=%d sweeps=%d workers=%d: cell (%d,%d) = %v, oracle %v",
							n, sweeps, w, i/(n+2), i%(n+2), got.Data[i], v)
					}
				}
				if d := g.MaxAbsDiff(orig); d != 0 {
					t.Fatalf("n=%d sweeps=%d workers=%d: input grid modified by %v", n, sweeps, w, d)
				}
			}
		}
	}
}

var gridSink *Grid2D

// TestStencilRunAllocs pins StencilRun's allocations to one workspace
// (its two scratch grids) whatever the sweep count, so a per-call or
// per-sweep full-grid clone cannot come back.
func TestStencilRunAllocs(t *testing.T) {
	g := HotBoundaryGrid(64)
	one := allocsPerRun(func() { gridSink = StencilRun(g, 1, 1) })
	many := allocsPerRun(func() { gridSink = StencilRun(g, 16, 1) })
	if one != many {
		t.Errorf("StencilRun allocates %v times for 1 sweep, %v for 16", one, many)
	}
}

// TestStencilWorkspaceMatchesOracle reuses one workspace many times over,
// from an outside grid and from the grid it adopted, and checks every
// result bit for bit against the clone oracle and the StencilRun wrapper.
func TestStencilWorkspaceMatchesOracle(t *testing.T) {
	const n = 21
	g := NewGrid2D(n)
	rngFill(g, 5)
	orig := g.Clone()
	in := g.Clone()
	ws := NewStencilWorkspace(in)
	same := func(a, b *Grid2D) bool { return a.MaxAbsDiff(b) == 0 }
	for round := 0; round < 4; round++ {
		for _, sweeps := range []int{0, 1, 2, 7, 8} {
			for _, w := range []int{1, 2, 0} {
				want := stencilRunClones(g, sweeps, w)
				if got := ws.Run(g, sweeps, w); !same(got, want) {
					t.Fatalf("round %d sweeps=%d workers=%d: workspace run from g diverged", round, sweeps, w)
				}
				if got := StencilRun(g, sweeps, w); !same(got, want) {
					t.Fatalf("sweeps=%d workers=%d: StencilRun diverged", sweeps, w)
				}
				copy(in.Data, g.Data)
				if got := ws.Run(in, sweeps, w); !same(got, want) {
					t.Fatalf("round %d sweeps=%d workers=%d: workspace run from its adopted grid diverged", round, sweeps, w)
				}
				// A result may be the input of the next run.
				mid := ws.Run(g, 3, w)
				if got := ws.Run(mid, sweeps, w); !same(got, stencilRunClones(g, 3+sweeps, w)) {
					t.Fatalf("round %d sweeps=%d workers=%d: run from a result diverged", round, sweeps, w)
				}
			}
		}
	}
	if !same(g, orig) {
		t.Fatal("workspace runs modified their outside input")
	}
}

// TestStencilWorkspaceAllocs pins a warm workspace's runs to zero
// allocations, sequential and parallel.
func TestStencilWorkspaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop sched's job records at random")
	}
	g := HotBoundaryGrid(64)
	ws := NewStencilWorkspace(HotBoundaryGrid(64))
	for _, w := range []int{1, 2, 0} {
		run := func() { gridSink = ws.Run(g, 8, w) }
		run() // builds the row closure, warms sched's pools
		if a := allocsPerRun(run); a != 0 {
			t.Errorf("workers=%d: warm workspace run allocates %v times", w, a)
		}
	}
}
