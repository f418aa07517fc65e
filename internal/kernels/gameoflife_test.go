package kernels

import (
	"testing"
	"testing/quick"

	"perfeng/internal/sched"
	"perfeng/internal/telemetry"
)

func TestLifeBlinkerOscillates(t *testing.T) {
	b := NewLife(5, 5)
	// Vertical blinker.
	b.Set(2, 1, 1)
	b.Set(2, 2, 1)
	b.Set(2, 3, 1)
	one := b.Run(1, 1)
	// After one step: horizontal blinker.
	if one.At(1, 2) != 1 || one.At(2, 2) != 1 || one.At(3, 2) != 1 {
		t.Fatalf("blinker step wrong:\n%s", one)
	}
	if one.Population() != 3 {
		t.Fatalf("population = %d", one.Population())
	}
	two := b.Run(2, 1)
	if !two.Equal(b) {
		t.Fatalf("blinker must have period 2:\n%s", two)
	}
}

func TestLifeBlockIsStill(t *testing.T) {
	b := NewLife(6, 6)
	b.Set(2, 2, 1)
	b.Set(3, 2, 1)
	b.Set(2, 3, 1)
	b.Set(3, 3, 1)
	after := b.Run(7, 1)
	if !after.Equal(b) {
		t.Fatal("block must be a still life")
	}
}

func TestLifeGliderTravels(t *testing.T) {
	b := NewLife(16, 16)
	b.Glider(1, 1)
	// A glider translates by (1,1) every 4 generations.
	after := b.Run(4, 1)
	want := NewLife(16, 16)
	want.Glider(2, 2)
	if !after.Equal(want) {
		t.Fatalf("glider did not travel:\n%s\nwant:\n%s", after, want)
	}
}

func TestLifeToroidalWraparound(t *testing.T) {
	b := NewLife(4, 4)
	if b.At(-1, -1) != b.At(3, 3) {
		t.Fatal("negative wraparound broken")
	}
	if b.At(4, 4) != b.At(0, 0) {
		t.Fatal("positive wraparound broken")
	}
}

func TestLifeParallelMatchesSequential(t *testing.T) {
	b := RandomLife(40, 31, 0.35, 17)
	seq := b.Run(8, 1)
	for _, w := range []int{2, 3, 8, 64} {
		par := b.Run(8, w)
		if !seq.Equal(par) {
			t.Fatalf("workers=%d diverged", w)
		}
	}
}

func TestLifeEdgeCases(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLife(0, 5) must panic")
		}
	}()
	NewLife(0, 5)
}

func TestLifeString(t *testing.T) {
	b := NewLife(2, 1)
	b.Set(1, 0, 1)
	if got := b.String(); got != ".#\n" {
		t.Fatalf("String = %q", got)
	}
}

// Property: an empty board stays empty; a full board dies to stable
// patterns that never exceed the cell count.
func TestQuickLifeInvariants(t *testing.T) {
	f := func(seed int64, gens uint8) bool {
		g := int(gens % 6)
		empty := NewLife(9, 7)
		if empty.Run(g, 1).Population() != 0 {
			return false
		}
		b := RandomLife(9, 7, 0.5, seed)
		pop := b.Run(g, 1).Population()
		return pop >= 0 && pop <= 9*7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStepPaddedMatchesStep(t *testing.T) {
	for _, dims := range [][2]int{{5, 5}, {16, 9}, {33, 40}, {2, 2}} {
		b := RandomLife(dims[0], dims[1], 0.4, int64(dims[0]))
		want := b.Run(6, 1)
		got := b.RunPadded(6)
		if !want.Equal(got) {
			t.Fatalf("%dx%d: padded stepper diverged", dims[0], dims[1])
		}
	}
	// Glider (exercises all four torus edges on a small board).
	g := NewLife(6, 6)
	g.Glider(3, 3)
	if !g.Run(24, 1).Equal(g.RunPadded(24)) {
		t.Fatal("glider wraparound diverged")
	}
}

// TestLifeParallelEdgeShapes checks the parallel padded path against the
// sequential modulo stepper cell for cell on degenerate and non-square
// boards, including more workers than rows.
func TestLifeParallelEdgeShapes(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {7, 3}, {3, 7}, {40, 31}} {
		b := RandomLife(dims[0], dims[1], 0.45, int64(dims[0]*100+dims[1]))
		for _, gens := range []int{1, 2, 5} {
			want := b.Run(gens, 1)
			for _, w := range []int{0, -1, 2, 3, 64} {
				if got := b.Run(gens, w); !got.Equal(want) {
					t.Errorf("%dx%d gens=%d workers=%d: Run diverged from Run(gens, 1)\ngot:\n%swant:\n%s",
						dims[0], dims[1], gens, w, got, want)
				}
			}
		}
		want := b.Run(1, 1)
		for _, w := range []int{0, -1, 2, 3, 64} {
			got := NewLife(b.W, b.H)
			b.StepParallel(got, w)
			if !got.Equal(want) {
				t.Errorf("%dx%d workers=%d: StepParallel diverged from Step", dims[0], dims[1], w)
			}
		}
	}
}

// TestLifeGliderWrapsTorus runs a glider on a non-square torus long
// enough to leave through the right and bottom edges and re-enter through
// the left and top ones, and checks every path against the glider's known
// displacement of (1, 1) per 4 generations.
func TestLifeGliderWrapsTorus(t *testing.T) {
	const w, h = 9, 6
	b := NewLife(w, h)
	b.Glider(5, 2)
	for _, k := range []int{1, 4, 9, 18} {
		want := NewLife(w, h)
		want.Glider((5+k)%w, (2+k)%h)
		for _, workers := range []int{1, 0, 2, 3} {
			if got := b.Run(4*k, workers); !got.Equal(want) {
				t.Errorf("k=%d workers=%d: glider at the wrong place:\n%swant:\n%s", k, workers, got, want)
			}
		}
		if got := b.RunPadded(4 * k); !got.Equal(want) {
			t.Errorf("k=%d: padded glider at the wrong place:\n%swant:\n%s", k, got, want)
		}
	}
}

// TestLifeRunDefaultWorkersIsParallel: workers == 0 means "let the pool
// decide", so Run(8, 0) must dispatch one parallel region per generation
// instead of falling back to the sequential stepper; workers == 1 must not
// touch the scheduler at all.
func TestLifeRunDefaultWorkersIsParallel(t *testing.T) {
	reg := telemetry.NewRegistry()
	sched.EnableTelemetry(reg)
	t.Cleanup(func() { sched.EnableTelemetry(nil) })
	regions := reg.Counter("perfeng_sched_regions", "")
	inline := reg.Counter("perfeng_sched_regions_inline", "")

	b := RandomLife(64, 64, 0.3, 5)
	b.Run(8, 1)
	if r, i := regions.Value(), inline.Value(); r != 0 || i != 0 {
		t.Fatalf("Run(8, 1) dispatched %d regions (%d inline), want none", r, i)
	}
	b.Run(8, 0)
	if r := regions.Value(); r != 8 {
		t.Fatalf("Run(8, 0) dispatched %d regions (%d inline), want 8", r, inline.Value())
	}
}

var lifeSink *Life

// TestLifeRunAllocs pins the parallel Run to a fixed number of
// allocations whatever the generation count: one workspace (its two
// boards, one pad and one row closure) per call, never a pad or a closure
// per generation.
func TestLifeRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop sched's job records at random")
	}
	b := RandomLife(64, 48, 0.3, 9)
	for _, w := range []int{0, 2} {
		few := allocsPerRun(func() { lifeSink = b.Run(2, w) })
		many := allocsPerRun(func() { lifeSink = b.Run(16, w) })
		if few != many {
			t.Errorf("workers=%d: Run allocates %v times for 2 generations, %v for 16", w, few, many)
		}
	}
}

// lifeSteps is the oracle for the workspace tests: generations of Step
// between two fresh boards, starting from a copy of b.
func lifeSteps(b *Life, generations int) *Life {
	src, dst := NewLife(b.W, b.H), NewLife(b.W, b.H)
	copy(src.Cells, b.Cells)
	for g := 0; g < generations; g++ {
		src.Step(dst)
		src, dst = dst, src
	}
	return src
}

// TestLifeWorkspaceMatchesOracle runs every path of one LifeWorkspace
// many times over, from an outside board and from one of its own, and
// checks each result against the Step oracle and the Run and RunPadded
// wrappers, which build a fresh workspace per call.
func TestLifeWorkspaceMatchesOracle(t *testing.T) {
	b := RandomLife(37, 23, 0.35, 3)
	orig := lifeSteps(b, 0)
	ws := NewLifeWorkspace(b.W, b.H)
	for round := 0; round < 4; round++ {
		for _, gens := range []int{0, 1, 2, 7, 8} {
			want := lifeSteps(b, gens)
			for _, w := range []int{1, 2, 0} {
				if got := ws.Run(b, gens, w); !got.Equal(want) {
					t.Fatalf("round %d gens=%d workers=%d: workspace Run diverged from Step", round, gens, w)
				}
				if got := b.Run(gens, w); !got.Equal(want) {
					t.Fatalf("gens=%d workers=%d: Life.Run diverged from Step", gens, w)
				}
			}
			if got := ws.RunPadded(b, gens); !got.Equal(want) {
				t.Fatalf("round %d gens=%d: workspace RunPadded diverged from Step", round, gens)
			}
			if got := b.RunPadded(gens); !got.Equal(want) {
				t.Fatalf("gens=%d: Life.RunPadded diverged from Step", gens)
			}
			// Continue from the workspace's own board: the result of one
			// run may be the input of the next.
			mid := ws.Run(b, 3, 2)
			if got := ws.Run(mid, gens, 2); !got.Equal(lifeSteps(b, 3+gens)) {
				t.Fatalf("round %d gens=%d: run from the workspace's own board diverged", round, gens)
			}
		}
	}
	if !b.Equal(orig) {
		t.Fatal("workspace runs modified their input board")
	}
}

// TestLifeRunLeavesReceiver: Run and RunPadded only read their receiver,
// so every variant of one engagement steps from the same board.
func TestLifeRunLeavesReceiver(t *testing.T) {
	b := RandomLife(24, 17, 0.4, 8)
	orig := lifeSteps(b, 0)
	for _, gens := range []int{1, 2, 3, 8} {
		for _, w := range []int{1, 2, 0} {
			if got := b.Run(gens, w); got == b {
				t.Fatalf("gens=%d workers=%d: Run returned its receiver", gens, w)
			}
			if !b.Equal(orig) {
				t.Fatalf("gens=%d workers=%d: Run modified its receiver", gens, w)
			}
		}
		if got := b.RunPadded(gens); got == b || !b.Equal(orig) {
			t.Fatalf("gens=%d: RunPadded returned or modified its receiver", gens)
		}
	}
}

// TestLifeRuleMatchesBranchyRule checks the branch-free rule against the
// rule as the course states it, on every (neighbours, alive) pair.
func TestLifeRuleMatchesBranchyRule(t *testing.T) {
	for n := uint8(0); n <= 8; n++ {
		for alive := uint8(0); alive <= 1; alive++ {
			want := uint8(0)
			if alive == 1 && (n == 2 || n == 3) || alive == 0 && n == 3 {
				want = 1
			}
			if got := lifeRule(n, alive); got != want {
				t.Errorf("lifeRule(%d, %d) = %d, want %d", n, alive, got, want)
			}
		}
	}
}

// TestLifeWorkspaceAllocs pins a warm workspace's runs to zero
// allocations on every path.
func TestLifeWorkspaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop sched's job records at random")
	}
	b := RandomLife(64, 48, 0.3, 9)
	ws := NewLifeWorkspace(b.W, b.H)
	for _, run := range []func(){
		func() { lifeSink = ws.Run(b, 8, 1) },
		func() { lifeSink = ws.RunPadded(b, 8) },
		func() { lifeSink = ws.Run(b, 8, 2) },
		func() { lifeSink = ws.Run(b, 8, 0) },
	} {
		run() // builds the pad and the row closure, warms sched's pools
		if a := allocsPerRun(run); a != 0 {
			t.Errorf("warm workspace run allocates %v times", a)
		}
	}
}

// FuzzLifeRun decodes bytes into a board: width and height (1-48), live
// density, generations (0-10), workers (-1 to 8) and a seed from the
// remaining bytes. The parallel, sequential and padded paths must agree
// cell for cell.
func FuzzLifeRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		w, h := 1+int(data[0])%48, 1+int(data[1])%48
		density := float64(data[2]) / 255
		gens := int(data[3]) % 11
		workers := int(data[4])%10 - 1
		var seed int64
		for _, c := range data[5:] {
			seed = seed*131 + int64(c)
		}
		b := RandomLife(w, h, density, seed)
		want := b.Run(gens, 1)
		if got := b.Run(gens, workers); !got.Equal(want) {
			t.Fatalf("%dx%d gens=%d workers=%d: Run diverged from Run(gens, 1)\ngot:\n%swant:\n%s", w, h, gens, workers, got, want)
		}
		if got := b.RunPadded(gens); !got.Equal(want) {
			t.Fatalf("%dx%d gens=%d: RunPadded diverged from Run(gens, 1)\ngot:\n%swant:\n%s", w, h, gens, got, want)
		}
	})
}
