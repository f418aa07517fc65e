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
			n := b.neighbours(x, y)
			alive := src[y*w+x] == 1
			if alive && (n == 2 || n == 3) || !alive && n == 3 {
				out[y*w+x] = 1
			} else {
				out[y*w+x] = 0
			}
		}
	}
}

// StepParallel computes one generation into dst like StepPadded, with
// the rows split over the shared scheduler: the torus halo is filled into
// a padded scratch once, then row bands are computed from it in parallel.
// workers > 0 pins that many static row bands; workers <= 0 uses the
// pool's dynamic stealing policy (see parFor). Each call allocates its own
// pad; Run reuses one across generations.
func (b *Life) StepParallel(dst *Life, workers int) {
	pad := make([]uint8, b.padLen())
	b.fillPad(pad)
	parFor(b.H, workers, func(lo, hi int) { padRows(pad, dst, lo, hi) })
}

// Run advances the board g generations and returns the final board.
// Generations ping-pong between b and one new board, so b is overwritten
// when generations >= 2 (and is itself the result when generations is
// even). workers == 1 runs the modulo stepper, Step, which is the course's
// sequential baseline. Any other value runs the padded stepper in parallel
// as StepParallel does, with one pad shared by every generation:
// workers > 0 pins that many row bands and workers <= 0 (0 = GOMAXPROCS)
// uses the dynamic pool.
func (b *Life) Run(generations, workers int) *Life {
	src, dst := b, NewLife(b.W, b.H)
	if workers == 1 {
		for g := 0; g < generations; g++ {
			src.Step(dst)
			src, dst = dst, src
		}
		return src
	}
	pad := make([]uint8, b.padLen())
	// rows reads dst when it runs, so one closure serves every generation.
	rows := func(lo, hi int) { padRows(pad, dst, lo, hi) }
	for g := 0; g < generations; g++ {
		src.fillPad(pad)
		parFor(b.H, workers, rows)
		src, dst = dst, src
	}
	return src
}

// Glider stamps the classic glider pattern at (x, y).
func (b *Life) Glider(x, y int) {
	coords := [][2]int{{1, 0}, {2, 1}, {0, 2}, {1, 2}, {2, 2}}
	for _, c := range coords {
		b.Set((x+c[0])%b.W, (y+c[1])%b.H, 1)
	}
}

// StepPadded computes one generation using a padded scratch board instead
// of per-neighbour modulo arithmetic — the classic "hoist the wraparound
// out of the inner loop" optimization step in the Game-of-Life project
// ladder. Semantically identical to Step. scratch is reused when it is
// large enough; the pad actually used is returned for the next call.
func (b *Life) StepPadded(dst *Life, scratch []uint8) []uint8 {
	need := b.padLen()
	if cap(scratch) < need {
		scratch = make([]uint8, need)
	}
	pad := scratch[:need]
	b.fillPad(pad)
	padRows(pad, dst, 0, b.H)
	return pad
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
		up := pad[y*pw : (y+1)*pw]
		mid := pad[(y+1)*pw : (y+2)*pw]
		down := pad[(y+2)*pw : (y+3)*pw]
		out := dst.Cells[y*w : (y+1)*w]
		// Tell the prover the rows cover x+2 and out covers x, so the
		// inner loop runs without bounds checks (-d=ssa/check_bce).
		_ = up[w+1]
		_ = mid[w+1]
		_ = down[w+1]
		_ = out[w-1]
		for x := 0; x < w; x++ {
			n := int(up[x]) + int(up[x+1]) + int(up[x+2]) +
				int(mid[x]) + int(mid[x+2]) +
				int(down[x]) + int(down[x+1]) + int(down[x+2])
			alive := mid[x+1] == 1
			if alive && (n == 2 || n == 3) || !alive && n == 3 {
				out[x] = 1
			} else {
				out[x] = 0
			}
		}
	}
}

// RunPadded advances the board like Run but with the padded stepper.
func (b *Life) RunPadded(generations int) *Life {
	src := b
	dst := NewLife(b.W, b.H)
	var scratch []uint8
	for g := 0; g < generations; g++ {
		scratch = src.StepPadded(dst, scratch)
		src, dst = dst, src
	}
	return src
}
