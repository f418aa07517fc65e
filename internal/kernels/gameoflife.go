package kernels

import (
	"math/rand"
	"strings"
)

// Conway's Game of Life on a toroidal grid — the second most popular
// student project (Section 5.1). The kernel is integer/branch heavy with a
// 9-point neighbourhood, the pedagogical contrast to the FP stencil.

// Life is a toroidal Game-of-Life board.
type Life struct {
	W, H  int
	Cells []uint8 // 1 = alive, row-major
}

// NewLife allocates a dead w x h board. It panics on non-positive sizes.
func NewLife(w, h int) *Life {
	if w <= 0 || h <= 0 {
		panic("kernels: non-positive Life board")
	}
	return &Life{W: w, H: h, Cells: make([]uint8, w*h)}
}

// RandomLife returns a board with the given live-cell density.
func RandomLife(w, h int, density float64, seed int64) *Life {
	b := NewLife(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range b.Cells {
		if rng.Float64() < density {
			b.Cells[i] = 1
		}
	}
	return b
}

// At returns cell (x, y) with toroidal wraparound.
func (b *Life) At(x, y int) uint8 {
	x = ((x % b.W) + b.W) % b.W
	y = ((y % b.H) + b.H) % b.H
	return b.Cells[y*b.W+x]
}

// Set assigns cell (x, y) (no wraparound; caller provides in-range coords).
func (b *Life) Set(x, y int, v uint8) { b.Cells[y*b.W+x] = v }

// Population returns the number of live cells.
func (b *Life) Population() int {
	n := 0
	for _, c := range b.Cells {
		n += int(c)
	}
	return n
}

// Equal reports whether two boards have identical state.
func (b *Life) Equal(o *Life) bool {
	if b.W != o.W || b.H != o.H {
		return false
	}
	for i, c := range b.Cells {
		if c != o.Cells[i] {
			return false
		}
	}
	return true
}

// String renders the board with '#' for live cells.
func (b *Life) String() string {
	var sb strings.Builder
	cells, w := b.Cells, b.W
	for y := 0; y < b.H; y++ {
		for x := 0; x < w; x++ {
			if cells[y*w+x] == 1 {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (b *Life) neighbours(x, y int) int {
	w, h := b.W, b.H
	xm := (x - 1 + w) % w
	xp := (x + 1) % w
	ym := (y - 1 + h) % h
	yp := (y + 1) % h
	return int(b.Cells[ym*w+xm]) + int(b.Cells[ym*w+x]) + int(b.Cells[ym*w+xp]) +
		int(b.Cells[y*w+xm]) + int(b.Cells[y*w+xp]) +
		int(b.Cells[yp*w+xm]) + int(b.Cells[yp*w+x]) + int(b.Cells[yp*w+xp])
}

// Step computes one generation into dst. dst must be a distinct board of
// the same size.
func (b *Life) Step(dst *Life) {
	src, out, w := b.Cells, dst.Cells, b.W
	for y := 0; y < b.H; y++ {
		for x := 0; x < w; x++ {
			out[y*w+x] = lifeRule(uint8(b.neighbours(x, y)), src[y*w+x])
		}
	}
}

// lifeRule returns a cell's next state from its live-neighbour count n
// and its state alive (0 or 1): it lives iff n == 3, or n == 2 and it is
// alive, which is n|alive == 3. The comparison compiles to a flag set, not
// a branch, so a step costs the same whatever the board's density.
func lifeRule(n, alive uint8) uint8 {
	if n|alive == 3 {
		return 1
	}
	return 0
}

// StepParallel computes one generation into dst with the padded stepper,
// the rows split over the shared scheduler: the torus halo is filled into
// a padded scratch once, then row bands are computed from it in parallel.
// workers > 0 pins that many static row bands; workers <= 0 uses the
// pool's dynamic stealing policy (see parFor). Each call allocates its own
// pad; a LifeWorkspace reuses one across generations and calls.
func (b *Life) StepParallel(dst *Life, workers int) {
	pad := make([]uint8, b.padLen())
	b.fillPad(pad)
	parFor(b.H, workers, func(lo, hi int) { padRows(pad, dst, lo, hi) })
}

// Run advances the board generations generations and returns the final
// board (b itself when generations <= 0); b is never modified. It builds
// one LifeWorkspace and runs it from b, so callers that run one board
// shape repeatedly keep a LifeWorkspace instead. workers == 1 runs the
// modulo stepper, Step, which is the course's sequential baseline. Any
// other value runs the padded stepper in parallel as StepParallel does,
// with one pad shared by every generation: workers > 0 pins that many row
// bands and workers <= 0 (0 = GOMAXPROCS) uses the dynamic pool.
func (b *Life) Run(generations, workers int) *Life {
	return NewLifeWorkspace(b.W, b.H).Run(b, generations, workers)
}

// RunPadded advances the board like Run(generations, 1), but with the
// padded stepper instead of per-neighbour modulo arithmetic: the classic
// "hoist the wraparound out of the inner loop" step of the Game-of-Life
// project ladder. b itself is never modified; like Run, it builds one
// LifeWorkspace per call.
func (b *Life) RunPadded(generations int) *Life {
	return NewLifeWorkspace(b.W, b.H).RunPadded(b, generations)
}

// LifeWorkspace holds the two boards and the pad that Run and RunPadded
// step between, so repeated runs on one board shape allocate nothing and
// never write to their input. A workspace is not safe for concurrent use.
type LifeWorkspace struct {
	boards [2]Life
	pad    []uint8          // built on the first padded generation
	dst    *Life            // the parallel generation in flight, read by rows
	rows   func(lo, hi int) // built on the first parallel generation
}

// NewLifeWorkspace returns a workspace for w x h boards. It panics on
// non-positive sizes.
func NewLifeWorkspace(w, h int) *LifeWorkspace {
	ws := &LifeWorkspace{}
	for i := range ws.boards {
		ws.boards[i] = *NewLife(w, h)
	}
	return ws
}

// Run advances b generations generations and returns the final board:
// b itself when generations <= 0, otherwise one of the workspace's
// boards, valid until the next run. b is only read, unless it is one of
// the workspace's own boards. workers has Life.Run's meaning.
func (ws *LifeWorkspace) Run(b *Life, generations, workers int) *Life {
	if workers == 1 {
		return ws.run(b, generations, (*Life).Step)
	}
	if ws.rows == nil {
		ws.rows = func(lo, hi int) { padRows(ws.pad, ws.dst, lo, hi) }
	}
	return ws.run(b, generations, func(src, dst *Life) {
		src.fillPad(ws.padFor(src))
		ws.dst = dst
		parFor(src.H, workers, ws.rows)
	})
}

// RunPadded is Run with the sequential padded stepper.
func (ws *LifeWorkspace) RunPadded(b *Life, generations int) *Life {
	return ws.run(b, generations, func(src, dst *Life) {
		pad := ws.padFor(src)
		src.fillPad(pad)
		padRows(pad, dst, 0, src.H)
	})
}

// run ping-pongs generations of step between the workspace's boards,
// starting from b.
func (ws *LifeWorkspace) run(b *Life, generations int, step func(src, dst *Life)) *Life {
	dst, spare := &ws.boards[0], &ws.boards[1]
	if b == dst {
		dst, spare = spare, dst
	}
	src := b
	for g := 0; g < generations; g++ {
		step(src, dst)
		src, dst, spare = dst, spare, dst
	}
	return src
}

// padFor returns the workspace's pad for boards shaped like b.
func (ws *LifeWorkspace) padFor(b *Life) []uint8 {
	if ws.pad == nil {
		ws.pad = make([]uint8, b.padLen())
	}
	return ws.pad
}

// Glider stamps the classic glider pattern at (x, y).
func (b *Life) Glider(x, y int) {
	coords := [][2]int{{1, 0}, {2, 1}, {0, 2}, {1, 2}, {2, 2}}
	for _, c := range coords {
		b.Set((x+c[0])%b.W, (y+c[1])%b.H, 1)
	}
}

// padLen is the size of the (W+2) x (H+2) pad that fillPad fills.
func (b *Life) padLen() int { return (b.W + 2) * (b.H + 2) }

// fillPad copies the board into the interior of pad (padLen cells,
// row-major) and fills its one-cell halo ring with the opposite edges,
// so the torus is implemented once, outside the hot loop.
func (b *Life) fillPad(pad []uint8) {
	w, h := b.W, b.H
	pw := w + 2
	for y := 0; y < h; y++ {
		copy(pad[(y+1)*pw+1:(y+1)*pw+1+w], b.Cells[y*w:(y+1)*w])
	}
	copy(pad[1:1+w], b.Cells[(h-1)*w:h*w]) // top halo = last row
	copy(pad[(h+1)*pw+1:(h+1)*pw+1+w], b.Cells[0:w])
	for y := 0; y < h+2; y++ {
		pad[y*pw] = pad[y*pw+w]     // left halo = right column
		pad[y*pw+w+1] = pad[y*pw+1] // right halo = left column
	}
	// Corner cells are covered by the column fill above because the halo
	// rows were installed first.
}

// padRows computes rows [lo, hi) of the next generation into dst from a
// pad filled by fillPad. Disjoint row ranges may run concurrently.
func padRows(pad []uint8, dst *Life, lo, hi int) {
	w := dst.W
	pw := w + 2
	for y := lo; y < hi; y++ {
		// Nine views of the pad, each exactly w cells long: row u, m or d
		// (above, level, below) shifted by 0, 1 or 2 columns, so that
		// cell x's neighbourhood is column x of each. Equal fixed lengths
		// let the inner loop run without bounds checks
		// (-d=ssa/check_bce).
		out := dst.Cells[y*w:][:w]
		u0, u1, u2 := pad[y*pw:][:w], pad[y*pw+1:][:w], pad[y*pw+2:][:w]
		m0, m1, m2 := pad[(y+1)*pw:][:w], pad[(y+1)*pw+1:][:w], pad[(y+1)*pw+2:][:w]
		d0, d1, d2 := pad[(y+2)*pw:][:w], pad[(y+2)*pw+1:][:w], pad[(y+2)*pw+2:][:w]
		for x := range out {
			n := u0[x] + u1[x] + u2[x] + m0[x] + m2[x] + d0[x] + d1[x] + d2[x]
			out[x] = lifeRule(n, m1[x])
		}
	}
}
